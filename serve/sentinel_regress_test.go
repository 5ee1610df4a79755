package serve

// Regression tests for the sentinel-wrapping fixes heaxlint flagged in
// this package: wire-code translation and construction errors must be
// branchable with errors.Is, not string-matched.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"heax"
)

// TestCodeToErrWrapsSentinels: every wire code (including the two the
// linter caught returning bare errors — canceled and unknown) decodes
// to an error wrapping the matching sentinel.
func TestCodeToErrWrapsSentinels(t *testing.T) {
	cases := []struct {
		code byte
		want error
	}{
		{codeCorrupt, heax.ErrCorrupt},
		{codeCanceled, context.Canceled},
		{codeOverloaded, ErrOverloaded},
		{codeDeadline, ErrDeadlineExceeded},
		{codeDraining, ErrServerDraining},
		{codeResourceExhausted, ErrResourceExhausted},
		{codeUnknownTenant, ErrUnknownTenant},
		{codeTenantExists, ErrTenantExists},
		{codeUnknownPlan, ErrUnknownPlan},
		{codeKeyMissing, heax.ErrKeyMissing},
		{codeInternal, ErrInternal},
	}
	for _, tc := range cases {
		if err := codeToErr(tc.code, "boom"); !errors.Is(err, tc.want) {
			t.Errorf("codeToErr(%d): %v does not wrap %v", tc.code, err, tc.want)
		}
	}
	// A code from a future wire dialect is protocol corruption, so
	// client retry logic refuses to hammer an incompatible endpoint.
	if err := codeToErr(0xEE, "???"); !errors.Is(err, heax.ErrCorrupt) {
		t.Errorf("codeToErr(unknown): %v does not wrap heax.ErrCorrupt", err)
	}
}

// TestCodeRoundTrip: errors.Is survives an errToCode/codeToErr wire
// round trip for the retryable sentinels the client branches on.
func TestCodeRoundTrip(t *testing.T) {
	for _, sentinel := range []error{
		ErrOverloaded, ErrServerDraining, ErrDeadlineExceeded,
		ErrResourceExhausted, ErrUnknownTenant, heax.ErrCorrupt,
	} {
		code, msg := errToCode(sentinel)
		if err := codeToErr(code, msg); !errors.Is(err, sentinel) {
			t.Errorf("round trip lost %v (code %d): got %v", sentinel, code, err)
		}
	}
}

// TestWireErrorsRoundTrip: every entry of the wire table, wrapped,
// encodes to its own code and decodes to an error wrapping the sentinel
// that code carries — context.DeadlineExceeded arrives as
// ErrDeadlineExceeded — and cancellation wins over any other sentinel.
func TestWireErrorsRoundTrip(t *testing.T) {
	for _, e := range wireErrors {
		code, msg := errToCode(fmt.Errorf("step: %w", e.sentinel))
		if code != e.code {
			t.Errorf("errToCode(%v) = %d, want %d", e.sentinel, code, e.code)
		}
		want := e.sentinel
		if e.sentinel == context.DeadlineExceeded {
			want = ErrDeadlineExceeded
		}
		if err := codeToErr(code, msg); !errors.Is(err, want) {
			t.Errorf("round trip of %v (code %d): got %v, want it to wrap %v", e.sentinel, code, err, want)
		}
	}
	if code, _ := errToCode(errors.Join(ErrOverloaded, context.Canceled)); code != codeCanceled {
		t.Errorf("a canceled overload encodes as %d, want codeCanceled", code)
	}
	if code, _ := errToCode(errors.New("no sentinel")); code != codeInternal {
		t.Errorf("an error wrapping no sentinel encodes as %d, want codeInternal", code)
	}
}

// TestNewServerNilParams: construction misuse is a typed sentinel, not
// a panic (nopanic) and not a bare errors.New (sentinelwrap).
func TestNewServerNilParams(t *testing.T) {
	if _, err := NewServer(nil); !errors.Is(err, errNilParams) {
		t.Errorf("NewServer(nil): %v, want errNilParams", err)
	}
}

// TestPayloadReaderCorrupt: truncated and oversized fields wrap
// heax.ErrCorrupt so the server maps them to the wire's corrupt code.
func TestPayloadReaderCorrupt(t *testing.T) {
	var w payloadWriter
	w.u32(maxStringLen + 1)
	r := payloadReader{buf: w.buf}
	if _, err := r.str("name"); !errors.Is(err, heax.ErrCorrupt) {
		t.Errorf("oversized string length: %v, want ErrCorrupt", err)
	}

	r = payloadReader{buf: []byte{1, 2}}
	if _, err := r.u32("field"); !errors.Is(err, heax.ErrCorrupt) {
		t.Errorf("truncated u32: %v, want ErrCorrupt", err)
	}

	r = payloadReader{buf: []byte{0xFF}}
	if err := r.done("frame"); !errors.Is(err, heax.ErrCorrupt) {
		t.Errorf("trailing garbage: %v, want ErrCorrupt", err)
	}
}

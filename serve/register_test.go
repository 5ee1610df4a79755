package serve

// Stream discipline of the Register path. A key set travels as one
// length-prefixed blob that must fill the rest of its frame: the client
// encodes it from the key polynomials onto the connection, and the
// server decodes it off the connection into the polynomials it
// registers. The wire bytes and the tenant-log record are those of the
// whole-payload layout this replaced; a bad or cut frame registers
// nothing and leaves the connection synchronized or dropped; the byte
// budget sheds before any key is decoded; and neither side holds an
// encoded copy of the set.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"heax"
	"heax/serve/durable"
)

// regSpec makes key sets of a few MB, large against a connection's
// fixed buffers, so an allocation bound measures the key path.
var regSpec = heax.ParamSpec{Name: "reg", LogN: 11, QBits: []int{30, 30, 30}, PBits: 31, LogScale: 20}

// regKeys returns regSpec's parameters, a key set with relinearization
// and seven rotation keys, and the set's encoded size.
func regKeys(t *testing.T) (*heax.Params, *heax.EvaluationKeySet, int) {
	t.Helper()
	params := heax.MustParams(regSpec)
	kg := heax.NewKeyGenerator(params, 501)
	evk := heax.GenEvaluationKeys(kg, kg.GenSecretKey(), []int{1, 2, 3, 4, 5, 6, 7}, false)
	size, err := heax.EvaluationKeySetSize(evk)
	if err != nil {
		t.Fatal(err)
	}
	return params, evk, size
}

// wholeRegisterPayload assembles a Register payload as clients did when
// the frame was read whole: the key set encoded into a buffer, then
// copied in as a length-prefixed blob.
func wholeRegisterPayload(t testing.TB, tenant string, evk *heax.EvaluationKeySet) []byte {
	t.Helper()
	var pw payloadWriter
	if err := pw.str(tenant); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := heax.WriteEvaluationKeySet(&buf, evk); err != nil {
		t.Fatal(err)
	}
	pw.blob(buf.Bytes())
	return pw.buf
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// waitConns waits until the server holds want connections, so every
// handler of a closed connection has returned.
func waitConns(t *testing.T, srv *Server, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server holds %d connections, want %d", n, want)
		}
	}
}

// TestRegisterFrameMatchesWholePayload: the streamed client writes the
// same frame bytes as the whole-payload layout, for a full, an empty and
// a nil key set, and a server accepts a frame assembled that way.
func TestRegisterFrameMatchesWholePayload(t *testing.T) {
	kit := newChaosKit(t, chaosParams(t), 401)
	var ok bytes.Buffer
	if err := writeFrame(&ok, respOK, nil); err != nil {
		t.Fatal(err)
	}
	for i, evk := range []*heax.EvaluationKeySet{kit.evk, {}, nil} {
		var sent bytes.Buffer
		c := &Client{bw: bufio.NewWriter(&sent), br: bufio.NewReader(bytes.NewReader(ok.Bytes())), maxFrame: DefaultMaxFrame}
		if err := c.Register("layout", evk); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := writeFrame(&want, reqRegister, wholeRegisterPayload(t, "layout", evk)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sent.Bytes(), want.Bytes()) {
			t.Fatalf("key set %d: streamed Register frame (%d bytes) differs from the whole-payload frame (%d bytes)", i, sent.Len(), want.Len())
		}
	}

	srv, addr := startChaosServer(t, kit.params, 0)
	peer := dialRaw(t, addr)
	if _, err := peer.exchange(reqRegister, wholeRegisterPayload(t, "whole", kit.evk), respOK); err != nil {
		t.Fatalf("whole-payload Register frame: %v", err)
	}
	cl, _ := dialChaos(t, addr)
	defer cl.Close()
	info, err := cl.Compile("whole", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}
	in := kit.batches(t, 402, 2)
	got, err := cl.Run("whole", info.ID, in)
	if err != nil {
		t.Fatal(err)
	}
	kit.assertOracle(t, in, got)
	cl.Close()
	auditZeroLeak(t, srv)
}

// TestStreamedRegisterBadFrames: every malformed Register frame is
// ErrCorrupt, registers nothing, and leaves the connection synchronized:
// the next frame on it registers a tenant.
func TestStreamedRegisterBadFrames(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 0)
	kit := newChaosKit(t, chaosParams(t), 411)
	good := wholeRegisterPayload(t, "bad", kit.evk)
	const keysAt = 4 + len("bad") + 4 // name length, name, key set length
	keyLen := len(good) - keysAt
	withKeyLen := func(p []byte, n int) []byte {
		p = append([]byte(nil), p...)
		binary.LittleEndian.PutUint32(p[keysAt-4:], uint32(n))
		return p
	}
	badResidue := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(badResidue[len(badResidue)-8:], ^uint64(0))

	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated in the name", good[:5]},
		{"truncated in the key set length", good[:keysAt-2]},
		{"truncated mid-polynomial", withKeyLen(good[:keysAt+keyLen/2], keyLen/2)},
		{"key set length beyond the frame", withKeyLen(good, keyLen+100)},
		{"key set length short of the frame", withKeyLen(good, keyLen-16)},
		{"residue out of range", badResidue},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peer := dialRaw(t, addr)
			if _, err := peer.exchange(reqRegister, tc.payload, respOK); !errors.Is(err, heax.ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			if _, err := srv.reg.get("bad"); err == nil {
				t.Fatal("a malformed frame registered its tenant")
			}
			next := fmt.Sprintf("next-%d", i)
			if _, err := peer.exchange(reqRegister, wholeRegisterPayload(t, next, kit.evk), respOK); err != nil {
				t.Fatalf("well-formed Register after the bad frame: %v", err)
			}
		})
	}
	auditZeroLeak(t, srv)
}

// TestChaosRegisterCut: the connection dies partway through a Register
// frame — in the header, the name length, the name, the key set length,
// the key set, one byte short of the end — and the server registers
// nothing, drops the connection and leaks nothing. The same keys then
// register cleanly and serve bit-identical results.
func TestChaosRegisterCut(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 0)
	kit := newChaosKit(t, chaosParams(t), 431)
	size, err := heax.EvaluationKeySetSize(kit.evk)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := frameHeaderLen + 4 + len("cut") + 4 + size
	for _, cutAt := range []int{3, 11, 14, 18, 200, frameLen / 2, frameLen - 1} {
		cl, fc := dialChaos(t, addr)
		fc.mu.Lock()
		fc.cutAfterWrite = fc.written + cutAt
		fc.mu.Unlock()
		if err := cl.Register("cut", kit.evk); err == nil {
			t.Fatalf("cut at +%d bytes: a torn Register cannot succeed", cutAt)
		}
		if !fc.isCut() {
			t.Fatalf("cut at +%d bytes: fault did not trigger", cutAt)
		}
		cl.Close()
		waitConns(t, srv, 0)
		if _, err := srv.reg.get("cut"); err == nil {
			t.Fatalf("cut at +%d bytes: a torn frame registered its tenant", cutAt)
		}
	}

	cl, _ := dialChaos(t, addr)
	defer cl.Close()
	if err := cl.Register("cut", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("cut", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}
	in := kit.batches(t, 432, 1)
	got, err := cl.Run("cut", info.ID, in)
	if err != nil {
		t.Fatal(err)
	}
	kit.assertOracle(t, in, got)
	cl.Close()
	auditZeroLeak(t, srv)
}

// TestRegisterBudgetShedsBeforeDecoding: a key set one byte over the
// tenant's budget is refused with ErrResourceExhausted before a single
// key polynomial exists — the whole exchange, client and server,
// allocates a small fraction of the set — and its frame is drained, so
// the same connection then registers the set under a budget that fits
// it exactly.
func TestRegisterBudgetShedsBeforeDecoding(t *testing.T) {
	params, evk, size := regKeys(t)
	srv, addr := startChaosServer(t, params, 0,
		WithTenantPolicy("capped", TenantPolicy{MaxBytes: int64(size) - 1}))
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	before := totalAlloc()
	err = cl.Register("capped", evk)
	grown := totalAlloc() - before
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("over-budget key set: got %v, want ErrResourceExhausted", err)
	}
	if !raceEnabled && grown > uint64(size)/16 {
		t.Fatalf("shedding a %d-byte key set allocated %d bytes: keys were decoded or buffered", size, grown)
	}
	if _, err := srv.reg.get("capped"); err == nil {
		t.Fatal("a shed key set was registered")
	}
	srv.SetTenantPolicy("capped", TenantPolicy{MaxBytes: int64(size)})
	if err := cl.Register("capped", evk); err != nil {
		t.Fatalf("Register after the shed frame, within budget: %v", err)
	}
	cl.Close()
	auditZeroLeak(t, srv)
}

// TestRegisterAllocations: a registration allocates the keys the server
// decodes and little else — no encoded copy of the set on either side.
// Client and server share this process, so one TotalAlloc delta covers
// both.
func TestRegisterAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are not meaningful under -race")
	}
	params, evk, size := regKeys(t)
	srv, addr := startChaosServer(t, params, 0)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	before := totalAlloc()
	if err := cl.Register("alloc", evk); err != nil {
		t.Fatal(err)
	}
	grown := totalAlloc() - before
	t.Logf("registering a %d-byte key set allocated %d bytes (%.3f×)", size, grown, float64(grown)/float64(size))
	if limit := uint64(size) * 5 / 4; grown > limit {
		t.Fatalf("registering a %d-byte key set allocated %d bytes, above the %d-byte (1.25×) bound", size, grown, limit)
	}
	cl.Close()
	auditZeroLeak(t, srv)
}

// TestRegisterLogRecordMatchesWholePayload: with a tenant log, the record a
// streamed registration appends is byte for byte the record of the
// whole-payload layout, whose key field was the uploaded blob.
func TestRegisterLogRecordMatchesWholePayload(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	srv, addr := startChaosServer(t, chaosParams(t), 0, WithTenantLog(st))
	cl, _ := dialChaos(t, addr)
	defer cl.Close()
	kit := newChaosKit(t, cl.Params(), 421)
	if err := cl.Register("wal", kit.evk); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := heax.WriteEvaluationKeySet(&blob, kit.evk); err != nil {
		t.Fatal(err)
	}
	want, err := durable.EncodeRecord(nil, durable.Record{Op: durable.OpRegister, Name: "wal", Keys: blob.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "tenants.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL holds %d bytes, want the %d-byte whole-payload record", len(got), len(want))
	}
	cl.Close()
	auditZeroLeak(t, srv)
}

// failLog is a tenant log whose appends all fail.
type failLog struct{}

var errLogDown = errors.New("tenant log down")

func (failLog) AppendRegister(string, []byte) error { return errLogDown }
func (failLog) AppendUnregister(string) error       { return errLogDown }

// TestRegisterLogFailureRollsBack: a registration the log cannot record
// is not acknowledged and not kept.
func TestRegisterLogFailureRollsBack(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 0, WithTenantLog(failLog{}))
	cl, _ := dialChaos(t, addr)
	defer cl.Close()
	kit := newChaosKit(t, cl.Params(), 451)
	if err := cl.Register("unlogged", kit.evk); !errors.Is(err, ErrInternal) {
		t.Fatalf("Register with a failing log: got %v, want ErrInternal", err)
	}
	if _, err := srv.reg.get("unlogged"); err == nil {
		t.Fatal("an unlogged registration was kept")
	}
	cl.Close()
	auditZeroLeak(t, srv)
}

// discardLog is a tenant log that keeps nothing.
type discardLog struct{}

func (discardLog) AppendRegister(string, []byte) error { return nil }
func (discardLog) AppendUnregister(string) error       { return nil }

// FuzzRegisterFrame: the streamed Register parser must reject malformed
// payloads with errors wrapping heax.ErrCorrupt — never a panic, a hang,
// or a key set larger than the bytes that carried it — and with a tenant
// log it must tee exactly the announced key set bytes.
func FuzzRegisterFrame(f *testing.F) {
	params := chaosParams(f)
	s, err := NewServer(params, WithAdmissionWindow(1), WithTenantLog(discardLog{}))
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	kit := newChaosKit(f, params, 441)
	valid := wholeRegisterPayload(f, "t", kit.evk)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(wholeRegisterPayload(f, "t", &heax.EvaluationKeySet{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := s.parseRegisterRequest(&io.LimitedReader{R: bytes.NewReader(data), N: int64(len(data))})
		if err != nil {
			if !errors.Is(err, heax.ErrCorrupt) {
				t.Fatalf("malformed register request must wrap ErrCorrupt, got %v", err)
			}
			return
		}
		if int64(len(req.blob)) != req.size {
			t.Fatalf("teed %d bytes of a %d-byte key set", len(req.blob), req.size)
		}
		if n, err := heax.EvaluationKeySetSize(req.evk); err != nil || int64(n) > req.size {
			t.Fatalf("decoded a %d-byte key set (%v) from %d bytes", n, err, req.size)
		}
	})
}

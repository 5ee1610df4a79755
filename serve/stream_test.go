package serve

// Stream discipline of the Run path. A Run frame is decoded as it
// arrives, so a request can fail with part of its frame still on the
// wire. The server must then answer with the same typed error it gave
// when frames were read whole, and must leave the connection
// synchronized: the next well-formed Run on the same connection returns
// outputs bit-identical to the in-process oracle. The frame reader must
// also never reserve memory on the strength of a length prefix alone.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"heax"
)

// rawPeer drives the protocol by hand over a bare net.Conn.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawPeer{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// exchange sends one frame and returns the reply's error (nil for a
// non-error frame) and payload.
func (p *rawPeer) exchange(typ byte, payload []byte, want byte) ([]byte, error) {
	p.t.Helper()
	p.conn.SetDeadline(time.Now().Add(20 * time.Second))
	if err := writeFrame(p.conn, typ, payload); err != nil {
		p.t.Fatal(err)
	}
	rtyp, resp, err := readFrame(p.br, DefaultMaxFrame)
	if err != nil {
		p.t.Fatalf("reading the reply: %v (the connection desynchronized or died)", err)
	}
	return resp, responseErr(rtyp, resp, want)
}

// run sends a Run payload and decodes a successful reply.
func (p *rawPeer) run(payload []byte, params *heax.Params, sent int) ([]map[string]*heax.Ciphertext, error) {
	p.t.Helper()
	resp, err := p.exchange(reqRunEx, payload, respBatches)
	if err != nil {
		return nil, err
	}
	return readRunResponse(&io.LimitedReader{R: bytes.NewReader(resp), N: int64(len(resp))}, params, sent)
}

// runPayload assembles a Run payload from already encoded batch blobs,
// announcing count batches and prefixing blob i with lens[i].
func runPayload(t testing.TB, tenant string, id PlanID, count int, blobs [][]byte, lens []int) []byte {
	t.Helper()
	var pw payloadWriter
	if err := pw.str(tenant); err != nil {
		t.Fatal(err)
	}
	pw.bytes(id[:])
	pw.bytes(make([]byte, len(requestID{})))
	pw.u64(0)
	pw.u32(uint32(count))
	for i, blob := range blobs {
		pw.u32(uint32(lens[i]))
		pw.bytes(blob)
	}
	return pw.buf
}

func encodeBatches(t testing.TB, in []map[string]*heax.Ciphertext) (blobs [][]byte, lens []int) {
	t.Helper()
	for _, batch := range in {
		var buf bytes.Buffer
		if err := heax.WriteCiphertextBatch(&buf, batch); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, buf.Bytes())
		lens = append(lens, buf.Len())
	}
	return blobs, lens
}

func TestStreamedRunResyncsAfterEarlyOut(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 0)
	setup, _ := dialChaos(t, addr)
	defer setup.Close()
	kit := newChaosKit(t, setup.Params(), 301)
	if err := setup.Register("stream", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := setup.Compile("stream", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}
	in := kit.batches(t, 302, 3)

	cases := []struct {
		name    string
		payload func() []byte
		want    error
	}{
		{"bad residue in the 2nd of 3 batches", func() []byte {
			blobs, lens := encodeBatches(t, in)
			bad := append([]byte(nil), blobs[1]...)
			binary.LittleEndian.PutUint64(bad[len(bad)-8:], ^uint64(0))
			blobs[1] = bad
			return runPayload(t, "stream", info.ID, 3, blobs, lens)
		}, heax.ErrCorrupt},
		{"blob length larger than the frame remainder", func() []byte {
			blobs, lens := encodeBatches(t, in)
			lens[0] = lens[0] + lens[1] + lens[2] + 1000
			return runPayload(t, "stream", info.ID, 3, blobs, lens)
		}, heax.ErrCorrupt},
		{"blob shorter than its batch", func() []byte {
			blobs, lens := encodeBatches(t, in)
			lens[0] -= 16
			return runPayload(t, "stream", info.ID, 3, blobs, lens)
		}, heax.ErrCorrupt},
		{"more batches announced than present", func() []byte {
			blobs, lens := encodeBatches(t, in[:2])
			return runPayload(t, "stream", info.ID, 3, blobs, lens)
		}, heax.ErrCorrupt},
		{"fewer batches announced than present", func() []byte {
			blobs, lens := encodeBatches(t, in)
			return runPayload(t, "stream", info.ID, 1, blobs, lens)
		}, heax.ErrCorrupt},
		{"unknown plan id", func() []byte {
			blobs, lens := encodeBatches(t, in)
			return runPayload(t, "stream", PlanID{0xde, 0xad}, 3, blobs, lens)
		}, ErrUnknownPlan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peer := dialRaw(t, addr)
			if _, err := peer.run(tc.payload(), kit.params, 3); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			// Same connection, next frame: a well-formed Run.
			blobs, lens := encodeBatches(t, in)
			got, err := peer.run(runPayload(t, "stream", info.ID, 3, blobs, lens), kit.params, 3)
			if err != nil {
				t.Fatalf("well-formed Run after the early-out: %v", err)
			}
			kit.assertOracle(t, in, got)
		})
	}
	setup.Close()
	auditZeroLeak(t, srv)
}

// TestStreamedRunResyncsWhileDraining: a Run or Register refused
// because the server is draining leaves its whole frame unread. Neither
// can succeed during a drain, so synchronization shows as the next
// frames on the same connection each getting their own well-formed,
// typed reply.
func TestStreamedRunResyncsWhileDraining(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 150*time.Millisecond, WithAdmissionWindow(1))
	cl, _ := dialChaos(t, addr)
	defer cl.Close()
	kit := newChaosKit(t, cl.Params(), 311)
	if err := cl.Register("drain", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("drain", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}
	peer := dialRaw(t, addr) // connected before the drain begins
	register := wholeRegisterPayload(t, "late", newChaosKit(t, kit.params, 313).evk)

	// Hold the drain open with a slow multi-batch run.
	in := kit.batches(t, 312, 4)
	held := make(chan error, 1)
	go func() {
		_, err := cl.Run("drain", info.ID, in)
		held <- err
	}()
	for {
		srv.adm.mu.Lock()
		busy := srv.adm.inFlightTotal > 0
		srv.adm.mu.Unlock()
		if busy {
			break
		}
		time.Sleep(time.Millisecond)
	}
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	for {
		srv.mu.Lock()
		draining := srv.draining
		srv.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}

	blobs, lens := encodeBatches(t, in[:2])
	payload := runPayload(t, "drain", info.ID, 2, blobs, lens)
	for i := 0; i < 2; i++ {
		if _, err := peer.run(payload, kit.params, 2); !errors.Is(err, ErrServerDraining) {
			t.Fatalf("run %d during drain: got %v, want ErrServerDraining", i, err)
		}
	}
	if _, err := peer.exchange(reqRegister, register, respOK); !errors.Is(err, ErrServerDraining) {
		t.Fatalf("register during drain: got %v, want ErrServerDraining", err)
	}
	if _, err := srv.reg.get("late"); err == nil {
		t.Fatal("a Register refused during the drain was kept")
	}
	var pw payloadWriter
	pw.str("nobody")
	if _, err := peer.exchange(reqUnregister, pw.buf, respOK); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unregister after refused runs and register: got %v, want ErrUnknownTenant", err)
	}
	if err := <-held; err != nil {
		t.Fatalf("in-flight run must survive the drain: %v", err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("drain missed its deadline: %v", err)
	}
	auditZeroLeak(t, srv)
}

// TestFrameLengthAloneReservesNothing: a header announcing a frame as
// large as the cap, followed by silence, must not make the server
// reserve the announced size — memory follows the bytes that arrive.
// Closing the connection ends its handler. With a tenant log, a Register
// frame's key set is teed for the log record as it arrives; the key
// set's own announced length must not reserve that copy either.
func TestFrameLengthAloneReservesNothing(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 0)
	for _, typ := range []byte{reqRegister, reqCompile, reqRunEx, 0x7f} {
		silentFrame(t, srv, addr, typ, nil)
	}

	durableSrv, durableAddr := startChaosServer(t, chaosParams(t), 0, WithTenantLog(discardLog{}))
	var pw payloadWriter
	pw.str("silent")
	pw.u32(uint32(DefaultMaxFrame - len(pw.buf) - 4))
	silentFrame(t, durableSrv, durableAddr, reqRegister, pw.buf)
}

// silentFrame announces a frame of the largest allowed length, sends
// the first bytes of its payload and goes silent, then fails t if the
// server's heap grew by more than a megabyte meanwhile.
func silentFrame(t *testing.T, srv *Server, addr string, typ byte, head []byte) {
	t.Helper()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrameHeader(conn, typ, DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(head); err != nil {
		t.Fatal(err)
	}
	// Give the handler time to consume what was sent and block on the
	// rest of a payload that never comes.
	waitConns(t, srv, 1)
	time.Sleep(50 * time.Millisecond)
	if grown := int64(heap()) - int64(before); grown > 1<<20 {
		t.Errorf("request type %#x with %d payload bytes sent: heap grew by %d bytes on a %d-byte length prefix",
			typ, len(head), grown, DefaultMaxFrame)
	}
	conn.Close()
	waitConns(t, srv, 0)
}

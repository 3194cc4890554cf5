package dse

// Fleet (TCP) transport tests: frame-level compression, the byte-identity
// guarantee over real ServeIslands workers, and the failure-mode matrix —
// worker killed mid-leg, truncated frame, wedged (never-replying) worker,
// worker-reported error. Every recoverable failure must land in a
// deterministic local takeover with an archive byte-identical to the
// in-process run; worker-reported errors must abort cleanly with no
// takeover. All of these run under -race in CI.

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestFrameCompression pins the wire format's compression contract: a
// large compressible payload crosses the wire flate-compressed (header
// bit 31 set, fewer bytes than the raw encoding), round-trips exactly,
// and both directions feed the process-wide transport counters. Small
// control frames must stay uncompressed.
func TestFrameCompression(t *testing.T) {
	in0, out0 := TransportCounters()

	big := &wireMsg{Kind: kindInit, Init: &wireInit{
		SpecJSON: bytes.Repeat([]byte("abcdefgh"), 4<<10), // 32 KiB, highly compressible
	}}
	var buf bytes.Buffer
	if err := writeFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	hdr := binary.BigEndian.Uint32(buf.Bytes()[:4])
	if hdr&frameCompressed == 0 {
		t.Error("32 KiB compressible frame did not set the compression bit")
	}
	if buf.Len() >= len(big.Init.SpecJSON) {
		t.Errorf("compressed frame is %d bytes for a %d-byte payload", buf.Len(), len(big.Init.SpecJSON))
	}
	frameLen := buf.Len()
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != kindInit || !bytes.Equal(got.Init.SpecJSON, big.Init.SpecJSON) {
		t.Error("compressed frame did not round-trip")
	}

	var small bytes.Buffer
	if err := writeFrame(&small, &wireMsg{Kind: kindAck}); err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(small.Bytes()[:4])&frameCompressed != 0 {
		t.Error("ack control frame was compressed")
	}
	if _, err := readFrame(&small); err != nil {
		t.Fatal(err)
	}

	in1, out1 := TransportCounters()
	if out1-out0 < int64(frameLen) || in1-in0 < int64(frameLen) {
		t.Errorf("transport counters moved by in=%d out=%d, want >= %d each", in1-in0, out1-out0, frameLen)
	}
}

// TestFrameSizeBound: a header declaring a frame past maxFrame must be
// rejected before any allocation, not trusted.
func TestFrameSizeBound(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(maxFrame+1))
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized frame header was accepted")
	}
}

// startFleetWorker runs a real ServeIslands worker on a loopback
// listener, exactly what `mcmapd -worker` wraps, and returns its address.
func startFleetWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go ServeIslands(l)
	return l.Addr().String()
}

// shrinkTCPRetries collapses the redial schedule so failure tests take
// milliseconds instead of the production second-scale backoff.
func shrinkTCPRetries(t *testing.T) {
	t.Helper()
	attempts, backoff := tcpRedialAttempts, tcpRedialBackoff
	tcpRedialAttempts, tcpRedialBackoff = 1, time.Millisecond
	t.Cleanup(func() { tcpRedialAttempts, tcpRedialBackoff = attempts, backoff })
}

// cutProxy sits between the coordinator and a live worker and simulates
// the worker dying mid-run: it forwards frames both ways until it has
// passed killAfter coordinator→worker frames, then severs the connection
// AND stops listening, so the redial fails and the endpoint must take
// the island over locally. The cut lands at a deterministic point in the
// request sequence; whether the in-flight reply squeaks through is the
// one race the takeover guarantee must absorb.
func cutProxy(t *testing.T, backend string, killAfter int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		client, err := l.Accept()
		if err != nil {
			return
		}
		worker, err := net.Dial("tcp", backend)
		if err != nil {
			client.Close()
			return
		}
		go io.Copy(client, worker) // replies and pings flow freely
		var hdr [4]byte
		for fwd := 0; fwd < killAfter; fwd++ {
			if _, err := io.ReadFull(client, hdr[:]); err != nil {
				break
			}
			n := binary.BigEndian.Uint32(hdr[:]) &^ frameCompressed
			if _, err := worker.Write(hdr[:]); err != nil {
				break
			}
			if _, err := io.CopyN(worker, client, int64(n)); err != nil {
				break
			}
		}
		l.Close()
		client.Close()
		worker.Close()
	}()
	return l.Addr().String()
}

// TestFleetMatchesInProcess is the fleet half of the mode-equivalence
// guarantee: islands distributed over real TCP workers — more islands
// than workers, so connections are shared round-robin — reproduce the
// in-process Result exactly, and keep doing so (takeover count aside)
// when a worker is killed mid-leg and its island is taken over locally.
func TestFleetMatchesInProcess(t *testing.T) {
	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 6, Seed: 11,
		Islands: 3, MigrationInterval: 2, Workers: 3}
	inProc, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("healthy", func(t *testing.T) {
		fopts := opts
		fopts.IslandHosts = []string{startFleetWorker(t), startFleetWorker(t)}
		fleet, err := Optimize(p, fopts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, "fleet", inProc, fleet, false)
	})

	t.Run("worker killed mid-leg", func(t *testing.T) {
		shrinkTCPRetries(t)
		ref, err := Optimize(p, Options{PopSize: 10, Generations: 6, Seed: 11,
			Islands: 2, MigrationInterval: 2, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		fopts := Options{PopSize: 10, Generations: 6, Seed: 11,
			Islands: 2, MigrationInterval: 2, Workers: 2}
		// Slot 0's worker dies after five forwarded requests — inside the
		// second leg, with init/advance/migrants already in the replay log.
		fopts.IslandHosts = []string{cutProxy(t, startFleetWorker(t), 5), startFleetWorker(t)}
		fleet, err := Optimize(p, fopts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, "fleet", ref, fleet, true)
		if fleet.Stats.IslandTakeovers != 1 {
			t.Errorf("got %d takeovers, want exactly 1 (the killed slot)", fleet.Stats.IslandTakeovers)
		}
	})
}

// TestFleetUnreachableWorker: a host nothing listens on is the lazy-dial
// failure path — the very first exchange runs the recovery ladder and
// the slot is served locally from generation zero.
func TestFleetUnreachableWorker(t *testing.T) {
	shrinkTCPRetries(t)
	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 4, Seed: 7,
		Islands: 2, MigrationInterval: 2, Workers: 2}
	ref, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Grab a port that is guaranteed dead by closing its listener.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	fopts := opts
	fopts.IslandHosts = []string{dead, startFleetWorker(t)}
	fleet, err := Optimize(p, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := archiveSignature(fleet), archiveSignature(ref); got != want {
		t.Errorf("takeover archives diverge from in-process:\n in-proc %s\n   fleet %s", want, got)
	}
	if fleet.Stats.IslandTakeovers != 1 {
		t.Errorf("got %d takeovers, want 1", fleet.Stats.IslandTakeovers)
	}
}

// TestFleetTruncatedFrame: a worker that dies mid-frame leaves the
// coordinator a short read, which must classify as a transport failure —
// recovery ladder, local takeover, byte-identical archive — never a
// decode of garbage.
func TestFleetTruncatedFrame(t *testing.T) {
	shrinkTCPRetries(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if _, err := readFrame(conn); err != nil { // the init request
			conn.Close()
			return
		}
		// A header promising 64 payload bytes, then only 8 and a dead
		// socket: io.ReadFull must surface ErrUnexpectedEOF.
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 64)
		conn.Write(hdr[:])
		conn.Write(make([]byte, 8))
		conn.Close()
		l.Close() // no second chance: force the local takeover
	}()

	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 4, Seed: 7,
		Islands: 2, MigrationInterval: 2, Workers: 2}
	ref, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	fopts := opts
	fopts.IslandHosts = []string{l.Addr().String(), startFleetWorker(t)}
	fleet, err := Optimize(p, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := archiveSignature(fleet), archiveSignature(ref); got != want {
		t.Errorf("truncated-frame recovery diverges from in-process:\n in-proc %s\n   fleet %s", want, got)
	}
	if fleet.Stats.IslandTakeovers != 1 {
		t.Errorf("got %d takeovers, want 1", fleet.Stats.IslandTakeovers)
	}
}

// TestFleetHeartbeatDeadline: a worker that accepts frames but never
// replies — wedged, not dead — must be cut off by the heartbeat deadline
// (it emits no pings) and its island taken over locally. The healthy
// worker on the other slot keeps its legs alive under the same shrunken
// deadline purely through pings.
func TestFleetHeartbeatDeadline(t *testing.T) {
	shrinkTCPRetries(t)
	ping, beat := tcpPingInterval, tcpHeartbeatTimeout
	tcpPingInterval, tcpHeartbeatTimeout = 20*time.Millisecond, 250*time.Millisecond
	t.Cleanup(func() { tcpPingInterval, tcpHeartbeatTimeout = ping, beat })

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { // the wedge: swallow every frame, answer nothing
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(io.Discard, c)
			}(conn)
		}
	}()

	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 4, Seed: 7,
		Islands: 2, MigrationInterval: 2, Workers: 2}
	ref, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	fopts := opts
	fopts.IslandHosts = []string{l.Addr().String(), startFleetWorker(t)}
	fleet, err := Optimize(p, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := archiveSignature(fleet), archiveSignature(ref); got != want {
		t.Errorf("heartbeat recovery diverges from in-process:\n in-proc %s\n   fleet %s", want, got)
	}
	if fleet.Stats.IslandTakeovers != 1 {
		t.Errorf("got %d takeovers, want 1", fleet.Stats.IslandTakeovers)
	}
}

// TestFleetWorkerErrorAborts: an error the worker itself reports travels
// back as a kindError frame over a perfectly healthy stream. That is a
// deterministic property of the run — replaying it anywhere re-derives
// it — so the coordinator must abort with the worker's message, not
// burn a takeover on it.
func TestFleetWorkerErrorAborts(t *testing.T) {
	shrinkTCPRetries(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := readFrame(c); err != nil {
					return
				}
				writeFrame(c, &wireMsg{Kind: kindError, Error: "worker exploded deterministically"})
			}(conn)
		}
	}()

	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 4, Seed: 7,
		Islands: 2, MigrationInterval: 2, Workers: 2}
	opts.IslandHosts = []string{l.Addr().String(), startFleetWorker(t)}
	_, err = Optimize(p, opts)
	if err == nil {
		t.Fatal("run against an error-reporting worker succeeded, want a clean abort")
	}
	if !strings.Contains(err.Error(), "worker exploded deterministically") {
		t.Errorf("abort error %q does not carry the worker's message", err)
	}
}

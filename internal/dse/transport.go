package dse

// This file is the venue-agnostic half of the island protocol: framing
// (length-prefixed self-contained gob, flate-compressed above a size
// threshold), the Transport interface both the pipe and TCP
// implementations satisfy, the worker-side protocol state machine shared
// by every venue (in-process island, pipe child, TCP fleet worker,
// coordinator-local takeover), and the coordinator's per-island
// endpoint. The orchestrator (runIslands, island.go) talks to endpoints
// only; it never sees whether an island runs in-process, behind a pipe
// or behind a socket.
//
// Failure model. Every state-bearing request a remote worker has
// acknowledged (init, advance, migrants) is appended to the endpoint's
// replay log.
// Island evolution is a pure function of that request sequence — the
// init frame pins the problem, options and seed; advance and migrants
// frames pin every RNG draw and archive merge — so a lost worker is
// recoverable without ever consulting the dead process: either a fresh
// connection replays the log against a new remote worker (TCP
// reconnect), or the coordinator replays it against an in-process
// islandWorker and serves the remaining legs locally (takeover). Both
// paths land in the exact state the lost worker held, so the final
// archive is byte-identical to an undisturbed run no matter which worker
// died or when (pinned by the transport failure tests). Errors the
// worker itself reports (kindError frames, wrong-kind replies on an
// intact stream) are NOT recovered: the stream is healthy and the run is
// wrong, so retrying anywhere would re-derive the same failure — they
// abort the job cleanly instead.

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// maxFrame bounds a frame's declared (and decompressed) length; anything
// larger means a corrupt or misframed stream, not a legitimate payload.
const maxFrame = 1 << 28

// compressThreshold is the encoded-frame size above which writeFrame
// attempts flate compression. Control frames (init acks, advance
// requests, pings) stay well under it and skip the compressor entirely;
// migrant/elite sets and done payloads — many near-identical gob-encoded
// genomes — typically shrink severalfold, which is what makes them cheap
// to ship across machines.
const compressThreshold = 4 << 10

// frameCompressed is the header bit marking a compressed payload. The
// length field keeps the low 31 bits, so the flag never collides with a
// legitimate size (maxFrame < 1<<31).
const frameCompressed = uint32(1) << 31

// transportBytesIn/Out count frame bytes (header included) read and
// written by every transport in the process, coordinator and worker side
// alike. Purely observability — surfaced on mcmapd's /stats and expvar —
// so plain process-global atomics are fine.
var transportBytesIn, transportBytesOut atomic.Int64

// TransportCounters reports the cumulative distributed-island frame
// bytes read and written by this process across all transports (pipe and
// TCP, coordinator and worker roles).
func TransportCounters() (in, out int64) {
	return transportBytesIn.Load(), transportBytesOut.Load()
}

// writeFrame encodes msg as one length-prefixed gob frame, flate-
// compressing payloads above compressThreshold (bit 31 of the length
// header marks compression). Each frame carries its own encoder state,
// so frames are self-contained and a reader can never desynchronize
// across message boundaries.
func writeFrame(w io.Writer, msg *wireMsg) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
		return fmt.Errorf("dse: encoding %s frame: %w", msg.Kind, err)
	}
	payload, flag := buf.Bytes(), uint32(0)
	if len(payload) > compressThreshold {
		var cbuf bytes.Buffer
		fw, err := flate.NewWriter(&cbuf, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := fw.Write(payload); err != nil {
			return err
		}
		if err := fw.Close(); err != nil {
			return err
		}
		if cbuf.Len() < len(payload) {
			payload, flag = cbuf.Bytes(), frameCompressed
		}
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("dse: %s frame of %d bytes exceeds the %d-byte bound", msg.Kind, len(payload), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload))|flag)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	transportBytesOut.Add(int64(4 + len(payload)))
	return nil
}

// readFrame reads one length-prefixed gob frame, transparently
// decompressing payloads whose header carries the compression bit.
func readFrame(r io.Reader) (*wireMsg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	raw := binary.BigEndian.Uint32(hdr[:])
	n := raw &^ frameCompressed
	if n > maxFrame {
		return nil, fmt.Errorf("dse: island frame of %d bytes exceeds the %d-byte bound (corrupt stream?)", n, maxFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	transportBytesIn.Add(int64(4 + n))
	var payload io.Reader = bytes.NewReader(buf)
	if raw&frameCompressed != 0 {
		fr := flate.NewReader(payload)
		defer fr.Close()
		// Bound the decompressed size like the raw size: a frame that
		// inflates past maxFrame is corrupt or hostile, not legitimate.
		payload = io.LimitReader(fr, maxFrame+1)
	}
	var msg wireMsg
	if err := gob.NewDecoder(payload).Decode(&msg); err != nil {
		return nil, fmt.Errorf("dse: decoding island frame: %w", err)
	}
	return &msg, nil
}

// Transport carries one island's half-duplex frame conversation between
// the coordinator and a worker. Send writes one request; Recv reads the
// next reply and enforces its kind, classifying failures: transport
// errors (broken pipe, deadline, truncated frame) are returned as-is and
// are recoverable by the endpoint, while worker-reported errors come
// back as *workerError and abort the run. Close releases a healthy
// worker (the protocol's clean EOF shutdown); Kill tears one down on
// error paths.
type Transport interface {
	Send(*wireMsg) error
	Recv(wantKind string) (*wireMsg, error)
	Close() error
	Kill()
}

// reconnector is the optional Transport extension for connections that
// can be re-established after a failure (TCP). The endpoint probes for
// it before falling back to a local takeover.
type reconnector interface {
	reconnect() error
}

// workerError marks a failure the worker itself reported (a kindError
// frame) or a protocol violation on an intact stream (wrong reply kind).
// Unlike transport failures these are deterministic properties of the
// run — replaying them locally or on a fresh connection would re-derive
// the same failure — so the endpoint never tries to recover them.
type workerError struct{ err error }

func (e *workerError) Error() string { return e.err.Error() }
func (e *workerError) Unwrap() error { return e.err }

func isWorkerError(err error) bool {
	var we *workerError
	return errors.As(err, &we)
}

// checkReply enforces the reply kind shared by every transport's Recv.
func checkReply(msg *wireMsg, wantKind string) (*wireMsg, error) {
	if msg.Kind == kindError {
		return nil, &workerError{errors.New(msg.Error)}
	}
	if msg.Kind != wantKind {
		return nil, &workerError{fmt.Errorf("dse: island worker replied %q, want %q", msg.Kind, wantKind)}
	}
	return msg, nil
}

// islandWorker is the worker-side protocol state machine: one island
// driven through init / advance / elites / migrants / finish requests.
// It is shared verbatim by in-process islands, the pipe server
// (RunIslandWorker), the TCP fleet server (ServeIslands) and the
// coordinator's local takeover, so every execution venue performs the
// identical operation sequence.
type islandWorker struct {
	isl *island
	// ownsPool is set when the island was built from an init payload,
	// on a private pool the worker must release. In-process islands are
	// built up front on the run's pool, which Optimize owns.
	ownsPool bool
}

// handle applies one request and returns its reply. A returned error is
// a worker-side failure the caller must surface as a kindError frame (or
// abort with, when running in-process).
func (w *islandWorker) handle(msg *wireMsg) (*wireMsg, error) {
	if msg.Kind != kindInit && w.isl == nil {
		return nil, fmt.Errorf("dse: island worker got %s before init", msg.Kind)
	}
	switch msg.Kind {
	case kindInit:
		// A payload builds the island; an in-process island is built
		// already and its init frame carries none.
		if msg.Init != nil {
			isl, err := buildWorkerIsland(msg.Init)
			if err != nil {
				return nil, err
			}
			w.isl, w.ownsPool = isl, true
		} else if w.isl == nil {
			return nil, errors.New("dse: island init frame without payload")
		}
		if err := w.isl.init(); err != nil {
			return nil, err
		}
		return &wireMsg{Kind: kindAck}, nil
	case kindAdvance:
		if err := w.isl.advance(msg.From, msg.To); err != nil {
			return nil, err
		}
		return &wireMsg{Kind: kindAck}, nil
	case kindElites:
		return &wireMsg{Kind: kindElites, Elites: w.isl.elites(msg.N)}, nil
	case kindMigrants:
		w.isl.receive(msg.In, msg.OutCount)
		return &wireMsg{Kind: kindAck}, nil
	case kindFinish:
		return &wireMsg{Kind: kindDone, Done: &wireDone{
			Archive: w.isl.archive,
			History: w.isl.history,
			Stats:   w.isl.stats,
			Island:  w.isl.islandStat(),
		}}, nil
	default:
		return nil, fmt.Errorf("dse: island worker got unknown message kind %q", msg.Kind)
	}
}

// close releases the pool the worker built from an init payload. Call
// only after the last handle has returned — fan-outs have joined by
// then.
func (w *islandWorker) close() {
	if w.ownsPool {
		w.isl.ev.pool.Close()
	}
}

// islandEndpoint is the coordinator's handle on one island slot. An
// in-process slot is a local worker from the start. A remote slot has
// the transport carrying its frames and the replay log that makes
// worker loss recoverable — and, after a takeover, the local worker
// serving the slot for the rest of the run.
type islandEndpoint struct {
	slot int
	// init is the payload of the slot's init request: the spec, options
	// and seed a remote worker builds its island from. Nil for
	// in-process slots, whose island is built up front.
	init *wireInit
	tr   Transport
	// log accumulates the state-bearing requests (init, advance,
	// migrants) the remote worker has acknowledged, in order. It is the
	// slot's recovery script: replayed against a fresh worker it
	// reconstructs the exact island state, because evolution is
	// deterministic in the request sequence. Elites and finish requests
	// are read-only and are not logged, and local workers keep no log.
	// The log is small — a handful of control frames per leg plus the
	// migrant payloads.
	log []*wireMsg
	// local serves the slot in-process: set up front for in-process
	// slots, and after a takeover (takenOver) for remote ones, whose
	// transport is dead from then on.
	local     *islandWorker
	takenOver bool
	// pending is the request sent by the broadcast phase whose reply has
	// not been collected yet, with the reply kind it expects.
	pending     *wireMsg
	pendingKind string
	// running joins the goroutine applying a request to the local
	// worker; reply and err are its outcome, read after the join.
	running sync.WaitGroup
	reply   *wireMsg
	err     error
}

// send starts one request/reply exchange. A local worker applies the
// request on its own goroutine, under the island's pprof labels (which
// every goroutine it spawns inherits), so the islands of a broadcast
// compute concurrently. Transport write errors are deliberately
// swallowed: the matching collect observes the broken stream on its
// read and owns all recovery, which keeps the broadcast's
// send-all-then-collect overlap intact.
func (ep *islandEndpoint) send(req *wireMsg, wantKind string) {
	ep.pending, ep.pendingKind = req, wantKind
	if ep.local == nil {
		_ = ep.tr.Send(req)
		return
	}
	w := ep.local
	ep.running.Add(1)
	//lint:allow gospawn one coordinator goroutine per island request; all work inside acquires from the shared pool
	go func() {
		defer ep.running.Done()
		pprof.Do(w.isl.ctx, pprof.Labels(), func(context.Context) {
			ep.reply, ep.err = w.handle(req)
		})
	}()
}

// collect finishes the exchange send started: it joins the local
// worker's goroutine, or reads the remote reply and logs the
// acknowledged state-bearing request. On a transport failure it runs the
// recovery ladder — reconnect + replay where the transport supports it,
// deterministic local takeover otherwise — and only reports an error for
// worker-side failures, which no venue can outrun.
func (ep *islandEndpoint) collect() (*wireMsg, error) {
	req, want := ep.pending, ep.pendingKind
	ep.pending, ep.pendingKind = nil, ""
	if req == nil {
		return nil, fmt.Errorf("dse: island %d: collect without a pending request", ep.slot)
	}
	if ep.local != nil {
		ep.running.Wait()
		reply, err := ep.reply, ep.err
		ep.reply, ep.err = nil, nil
		return reply, err
	}
	reply, err := ep.tr.Recv(want)
	if err == nil {
		ep.logIf(req)
		return reply, nil
	}
	if isWorkerError(err) {
		return nil, err
	}
	return ep.recover(req, want)
}

// recover handles a transport failure on the pending exchange: first a
// transport-level reconnect replaying the log against a fresh remote
// worker, then the local takeover. Worker-side errors surfacing during
// either replay abort the run — a deterministic failure re-derives
// everywhere.
func (ep *islandEndpoint) recover(req *wireMsg, want string) (*wireMsg, error) {
	if rc, ok := ep.tr.(reconnector); ok {
		reply, err := ep.replayRemote(rc, req, want)
		if err == nil {
			ep.logIf(req)
			return reply, nil
		}
		if isWorkerError(err) {
			return nil, err
		}
	}
	ep.tr.Kill()
	w := &islandWorker{}
	for _, m := range ep.log {
		if _, err := w.handle(m); err != nil {
			w.close()
			return nil, fmt.Errorf("dse: island %d local takeover replay: %w", ep.slot, err)
		}
	}
	reply, err := w.handle(req)
	if err != nil {
		w.close()
		return nil, err
	}
	ep.local, ep.takenOver = w, true
	return reply, nil
}

// replayRemote re-establishes the transport and brings a fresh remote
// worker to the pending request's state by replaying the log, then
// re-issues the request itself. Any transport error falls back to the
// caller's takeover path.
func (ep *islandEndpoint) replayRemote(rc reconnector, req *wireMsg, want string) (*wireMsg, error) {
	if err := rc.reconnect(); err != nil {
		return nil, err
	}
	for _, m := range ep.log {
		if err := ep.tr.Send(m); err != nil {
			return nil, err
		}
		if _, err := ep.tr.Recv(kindAck); err != nil {
			return nil, err
		}
	}
	if err := ep.tr.Send(req); err != nil {
		return nil, err
	}
	return ep.tr.Recv(want)
}

// logIf appends state-bearing requests to the replay log.
func (ep *islandEndpoint) logIf(req *wireMsg) {
	switch req.Kind {
	case kindInit, kindAdvance, kindMigrants:
		ep.log = append(ep.log, req)
	}
}

// close releases the endpoint after a successful run: clean transport
// shutdown for remote slots, the same release as kill for local ones.
func (ep *islandEndpoint) close() error {
	if ep.local == nil {
		return ep.tr.Close()
	}
	ep.kill()
	return nil
}

// kill tears the endpoint down on error paths. A local request still in
// flight is waited out before the worker releases its pool, so a failed
// or cancelled run has released every pool slot when Optimize returns.
func (ep *islandEndpoint) kill() {
	if ep.local == nil {
		ep.tr.Kill()
		return
	}
	ep.running.Wait()
	ep.local.close()
}

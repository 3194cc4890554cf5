package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcmap/internal/core"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/service"
	"mcmap/internal/validate"
)

// Request classes of the daemon mix.
const (
	classCold      = iota // a spec the daemon has never seen
	classRepeat           // byte-identical repeat of a recent request
	classRespelled        // a recent spec re-serialized with other whitespace
)

// recentWindow is how many of the latest cold specs repeats and
// re-spellings draw from: small enough that the daemon's result cache
// (256 entries, two per cold spec plus one per spelling) still holds them.
const recentWindow = 32

// overheadSpecs is how many cold specs the traced run replays both
// untraced and traced to measure the cost of tracing.
const overheadSpecs = 500

// daemon is an in-process mcmapd behind a loopback listener.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan error
}

// startDaemon builds the service, starts serving on a loopback port and
// returns once /healthz answers.
func startDaemon(client *http.Client) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: service.New(service.Config{}, nil), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	//lint:allow gospawn the HTTP server's accept loop, joined by stop
	go func() { d.done <- d.hs.Serve(ln) }()
	resp, err := client.Get(d.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener and the service down and waits for Serve to
// return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a stuck handler only delays exit; the service is closed next
	d.srv.Close()
	<-d.done
}

// daemonStats is the part of /stats the benchmark reads.
type daemonStats struct {
	Analyze struct {
		Requests     int64 `json:"requests"`
		Runs         int64 `json:"runs"`
		Coalesced    int64 `json:"coalesced"`
		ResultHits   int64 `json:"result_hits"`
		StructHits   int64 `json:"struct_hits"`
		StructMisses int64 `json:"struct_misses"`
	} `json:"analyze"`
	Queue struct {
		Analyze int64 `json:"analyze"`
	} `json:"queue"`
}

func (d *daemon) stats(client *http.Client) (daemonStats, error) {
	var st daemonStats
	resp, err := client.Get(d.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// coldSpec is a never-seen spec: a pool design with one or two regular
// tasks moved to other processors, the neighbourhood a designer probes
// around a candidate mapping.
type coldSpec struct {
	base  int
	moves []move
	body  []byte // first spelling; kept while the spec is recent
}

// move places one task on a processor.
type move struct {
	task model.TaskID
	proc model.ProcID
}

// mixGen generates the request stream from the seed. Two clients draw
// from it in turn, so the stream order is fixed; which client sends a
// request is not.
type mixGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	pool    []design
	regular [][]model.TaskID // movable tasks per pool design
	specs   []*coldSpec
	seen    map[[sha256.Size]byte]bool // hashes of every cold request sent
	spells  map[int]int
}

func newMixGen(pool []design, seed int64) *mixGen {
	g := &mixGen{rng: rand.New(rand.NewSource(mixSeed(seed, 600))), pool: pool,
		seen: map[[sha256.Size]byte]bool{}, spells: map[int]int{}}
	for _, d := range pool {
		var ids []model.TaskID
		for _, gr := range d.apps.Graphs {
			for _, t := range gr.Tasks {
				if t.Kind == model.KindRegular {
					ids = append(ids, t.ID)
				}
			}
		}
		g.regular = append(g.regular, ids)
	}
	return g
}

// spec materializes a cold spec: its design's mapping with the moves
// applied in order.
func (g *mixGen) spec(c *coldSpec) *model.Spec {
	d := g.pool[c.base]
	m := make(model.Mapping, len(d.mapping))
	for id, p := range d.mapping {
		m[id] = p
	}
	for _, mv := range c.moves {
		m[mv.task] = mv.proc
	}
	return &model.Spec{Architecture: d.arch, Apps: d.apps, Mapping: m}
}

// query is the /analyze query of a cold spec: its design's drop set.
func (g *mixGen) query(c *coldSpec) string {
	var names []string
	for name := range g.pool[c.base].dropped {
		names = append(names, name)
	}
	sort.Strings(names)
	return "drop=" + strings.Join(names, ",")
}

// spelling serializes a spec; spelling 0 is the canonical indented form,
// spelling k > 0 indents with tabs under a k-space prefix.
func spelling(s *model.Spec, k int) ([]byte, error) {
	if k == 0 {
		var buf bytes.Buffer
		err := s.WriteJSON(&buf)
		return buf.Bytes(), err
	}
	return json.MarshalIndent(s, strings.Repeat(" ", k), "\t")
}

// mixReq is one request of the stream.
type mixReq struct {
	class int
	spec  int
	body  []byte
	query string
}

// next draws the next request: 40% cold, 40% repeats, 20% re-spelled.
func (g *mixGen) next() (mixReq, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.rng.Float64()
	if len(g.specs) == 0 || r < 0.4 {
		return g.newCold()
	}
	lo := len(g.specs) - recentWindow
	if lo < 0 {
		lo = 0
	}
	i := lo + g.rng.Intn(len(g.specs)-lo)
	c := g.specs[i]
	if r < 0.8 {
		return mixReq{class: classRepeat, spec: i, body: c.body, query: g.query(c)}, nil
	}
	g.spells[i]++
	body, err := spelling(g.spec(c), g.spells[i])
	return mixReq{class: classRespelled, spec: i, body: body, query: g.query(c)}, err
}

// newCold draws a spec whose request has never been sent: every move puts
// a task on a processor other than its current one, and a draw whose
// body and query repeat an earlier cold request is drawn again.
func (g *mixGen) newCold() (mixReq, error) {
	for {
		base := g.rng.Intn(len(g.pool))
		d := g.pool[base]
		c := &coldSpec{base: base}
		at := func(id model.TaskID) model.ProcID {
			p := d.mapping[id]
			for _, mv := range c.moves {
				if mv.task == id {
					p = mv.proc
				}
			}
			return p
		}
		for n := 1 + g.rng.Intn(2); n > 0 && len(g.regular[base]) > 0; n-- {
			id := g.regular[base][g.rng.Intn(len(g.regular[base]))]
			k := g.rng.Intn(len(d.arch.Procs) - 1)
			if d.arch.Procs[k].ID == at(id) {
				k = len(d.arch.Procs) - 1
			}
			c.moves = append(c.moves, move{id, d.arch.Procs[k].ID})
		}
		body, err := spelling(g.spec(c), 0)
		if err != nil {
			return mixReq{}, err
		}
		query := g.query(c)
		key := sha256.Sum256(append(append([]byte(query), 0), body...))
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		c.body = body
		g.specs = append(g.specs, c)
		i := len(g.specs) - 1
		if old := i - recentWindow; old >= 0 {
			g.specs[old].body = nil
		}
		return mixReq{class: classCold, spec: i, body: body, query: query}, nil
	}
}

// answer is one completed request as the client saw it.
type answer struct {
	class   int
	spec    int
	latency time.Duration
	summary string
	err     error
}

// analyzeAnswer is the part of the /analyze response the check compares.
type analyzeAnswer struct {
	Feasible   bool     `json:"feasible"`
	NormalOK   bool     `json:"normal_ok"`
	CriticalOK bool     `json:"critical_ok"`
	Dropped    []string `json:"dropped"`
	Graphs     []struct {
		Name string     `json:"name"`
		WCRT model.Time `json:"wcrt"`
	} `json:"graphs"`
}

func (a *analyzeAnswer) summary() string {
	var b strings.Builder
	fmt.Fprint(&b, a.Feasible, a.NormalOK, a.CriticalOK, a.Dropped)
	for _, g := range a.Graphs {
		fmt.Fprintf(&b, " %s=%d", g.Name, int64(g.WCRT))
	}
	return b.String()
}

// post sends one request and returns its answer.
func post(client *http.Client, url string, r mixReq) answer {
	a := answer{class: r.class, spec: r.spec}
	t0 := time.Now()
	resp, err := client.Post(url+"/analyze?"+r.query, "application/json", bytes.NewReader(r.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	a.latency = time.Since(t0)
	switch {
	case err != nil:
		a.err = err
	case resp.StatusCode != http.StatusOK:
		a.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		var ans analyzeAnswer
		if err := json.Unmarshal(body, &ans); err != nil {
			a.err = err
		} else {
			a.summary = ans.summary()
		}
	}
	return a
}

// mixPhase runs the closed-loop clients for window and returns every
// answer in completion order, with the largest analyze queue depth seen
// when sampleStats is set.
func mixPhase(d *daemon, client *http.Client, gen *mixGen, window time.Duration, sampleStats bool) ([]answer, int64, error) {
	clients := runtime.NumCPU()
	var (
		mu       sync.Mutex
		answers  []answer
		depthMax int64
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		//lint:allow gospawn one load client per CPU, joined before mixPhase returns
		go func(c int) {
			defer wg.Done()
			for n := 0; time.Since(start) < window; n++ {
				r, err := gen.next()
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				a := post(client, d.url, r)
				var depth int64
				if sampleStats && c == 0 && n%16 == 0 {
					st, err := d.stats(client)
					if err == nil {
						depth = st.Queue.Analyze
					}
				}
				mu.Lock()
				answers = append(answers, a)
				if depth > depthMax {
					depthMax = depth
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return answers, depthMax, firstErr
}

// summarize renders the response a correct daemon gives for the spec and
// drop set, in the form analyzeAnswer.summary compares.
func summarize(s *model.Spec, dropped core.DropSet, rep *core.Report) string {
	want := analyzeAnswer{Feasible: rep.Feasible(), NormalOK: rep.NormalOK, CriticalOK: rep.CriticalOK, Dropped: []string{}}
	for name := range dropped {
		want.Dropped = append(want.Dropped, name)
	}
	sort.Strings(want.Dropped)
	for _, g := range s.Apps.Graphs {
		want.Graphs = append(want.Graphs, struct {
			Name string     `json:"name"`
			WCRT model.Time `json:"wcrt"`
		}{g.Name, rep.WCRTOf(g.Name)})
	}
	return want.summary()
}

// replay is the expected response summary of cold spec i: it takes the
// spec through every stage the daemon runs for it — decode, static
// checks, both fingerprints, compile, Algorithm 1 with the spec's drop
// set — outside the server, a span per stage.
func replay(gen *mixGen, i int, rec *recorder) (string, error) {
	c := gen.specs[i]
	body, err := spelling(gen.spec(c), 0)
	if err != nil {
		return "", err
	}
	op := int64(i)
	var (
		s   *model.Spec
		sys *platform.System
		rep *core.Report
	)
	if rec.do("model.decode", -1, op, func() { s, err = model.ReadSpec(bytes.NewReader(body)) }); err != nil {
		return "", err
	}
	var check *validate.Result
	if rec.do("validate.check", -1, op, func() { check = validate.CheckSpec(s) }); check.HasErrors() {
		return "", check.Err()
	}
	rec.do("validate.fingerprint", -1, op, func() {
		validate.Fingerprint(s)
		validate.Fingerprint(&model.Spec{Architecture: s.Architecture, Apps: s.Apps})
	})
	if rec.do("platform.compile", -1, op, func() { sys, err = platform.Compile(s.Architecture, s.Apps, s.Mapping, nil) }); err != nil {
		return "", err
	}
	dropped := gen.pool[c.base].dropped
	if rec.do("core.analyze", -1, op, func() { rep, err = core.Analyze(sys, dropped, core.NewConfig()) }); err != nil {
		return "", err
	}
	return summarize(s, dropped, rep), nil
}

// expectAll replays every listed cold spec for its expected response: on
// nproc goroutines when untraced, on one when traced (the recorder is not
// safe for concurrent use).
func expectAll(gen *mixGen, specs []int, rec *recorder) ([]string, error) {
	out := make([]string, len(specs))
	errs := make([]error, len(specs))
	workers := runtime.NumCPU()
	if rec != nil {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow gospawn one checker per CPU, joined before expectAll returns
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(specs); k = int(next.Add(1)) - 1 {
				out[k], errs[k] = replay(gen, specs[k], rec)
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// replayOverhead is the cost of tracing the replay: (traced − untraced) ÷
// untraced median replay time of the specs, replayed in untraced and
// traced pairs on one goroutine.
func replayOverhead(gen *mixGen, specs []int) (float64, error) {
	rec := newRecorder()
	var plain, traced []time.Duration
	for _, i := range specs {
		for _, r := range []*recorder{nil, rec} {
			t0 := time.Now()
			if _, err := replay(gen, i, r); err != nil {
				return 0, err
			}
			if r == nil {
				plain = append(plain, time.Since(t0))
			} else {
				traced = append(traced, time.Since(t0))
			}
		}
	}
	u := ms(quantile(plain, 0.5))
	return ratio(ms(quantile(traced, 0.5))-u, u), nil
}

// runDaemonMix drives an in-process mcmapd with two closed-loop
// keep-alive clients posting a mix of cold, repeated and re-spelled
// /analyze requests.
func runDaemonMix(cfg runConfig, res *result) error {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: runtime.NumCPU(), MaxConnsPerHost: runtime.NumCPU(), DisableCompression: true}}
	defer client.CloseIdleConnections()
	probs, err := paperProblems()
	if err != nil {
		return err
	}
	pool, err := designPool(probs, cfg.Size.Daemon, cfg.Seed)
	if err != nil {
		return err
	}
	gen := newMixGen(pool, cfg.Seed)
	d, err := startDaemon(client)
	if err != nil {
		return err
	}
	defer d.stop()

	// The mix for the window. An untraced run times set-up between slices
	// of it, with the clients idle; the traced run samples /stats for the
	// queue depth and takes the /stats delta over the window.
	var setup *setupSampler
	slices := 1
	if !cfg.Trace {
		setup = newSetupSampler(cfg.Size.SetupBatches, cfg.Duration, func() (func(), error) {
			d, err := startDaemon(client)
			if err != nil {
				return nil, err
			}
			return d.stop, nil
		})
		slices = cfg.Size.SetupBatches
	}
	var before, after daemonStats
	if cfg.Trace {
		if before, err = d.stats(client); err != nil {
			return err
		}
	}
	var answers []answer
	var depthMax int64
	rt0 := readRuntime()
	for k := 0; k < slices; k++ {
		setup.tick()
		slice, depth, err := mixPhase(d, client, gen, cfg.Duration/time.Duration(slices), cfg.Trace)
		if err != nil {
			return err
		}
		answers = append(answers, slice...)
		depthMax = max(depthMax, depth)
	}
	rt1 := readRuntime()
	if cfg.Trace {
		if after, err = d.stats(client); err != nil {
			return err
		}
	}
	latencies := func(class func(int) bool) []time.Duration {
		var out []time.Duration
		for _, a := range answers {
			if a.err == nil && class(a.class) {
				out = append(out, a.latency)
			}
		}
		return out
	}

	// Output check: every 200 response equals a replay of the same spec
	// and drop set outside the server; the traced run times that replay
	// per stage.
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	var specs []int
	seen := map[int]bool{}
	for _, a := range answers {
		if a.err == nil && !seen[a.spec] {
			seen[a.spec] = true
			specs = append(specs, a.spec)
		}
	}
	expected, err := expectAll(gen, specs, rec)
	if err != nil {
		return fmt.Errorf("replay of the posted specs: %w", err)
	}
	want := make(map[int]string, len(specs))
	for k, i := range specs {
		want[i] = expected[k]
	}
	for _, a := range answers {
		err := a.err
		if err == nil && want[a.spec] != a.summary {
			err = fmt.Errorf("spec %d: response %q, replay %q", a.spec, a.summary, want[a.spec])
		}
		res.op(err)
	}

	res.setLatency(latencies(func(int) bool { return true }), cfg.Duration)
	if !cfg.Trace {
		return setup.report(res)
	}
	overhead, err := replayOverhead(gen, specs[:min(len(specs), overheadSpecs)])
	if err != nil {
		return err
	}
	res.set("trace.overhead_frac", overhead)
	b, a := before.Analyze, after.Analyze
	reqs := float64(a.Requests - b.Requests)
	runs := float64(a.Runs - b.Runs)
	res.set("service.result_hit_ratio", ratio(float64(a.ResultHits-b.ResultHits), reqs))
	res.set("service.coalesced_ratio", ratio(float64(a.Coalesced-b.Coalesced), reqs))
	res.set("service.runs_per_request", ratio(runs, reqs))
	res.set("core.struct_hit_ratio", ratio(float64(a.StructHits-b.StructHits), float64(a.StructHits-b.StructHits+a.StructMisses-b.StructMisses)))
	res.set("service.queue_depth_max", float64(depthMax))
	res.set("runtime.alloc_kb_per_analysis", ratio((rt1.alloc-rt0.alloc)/1024, runs))
	res.set("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.cpu-rt0.cpu))
	cold := latencies(func(c int) bool { return c == classCold })
	res.set("service.cold_p50_ms", ms(quantile(cold, 0.5)))
	res.set("service.warm_p50_ms", ms(quantile(latencies(func(c int) bool { return c != classCold }), 0.5)))

	self := rec.selfTimes()
	stages := 0.0
	for _, name := range []string{"model.decode", "validate.check", "validate.fingerprint", "platform.compile", "core.analyze"} {
		v := self[name].meanMs()
		res.set(name+"_ms", v)
		stages += v
	}
	var coldSum time.Duration
	for _, l := range cold {
		coldSum += l
	}
	if len(cold) > 0 {
		res.set("service.overhead_ms", ms(coldSum)/float64(len(cold))-stages)
	}
	return rec.write(cfg.SpanDir, fmt.Sprintf("spans-daemon-mix-%d.json", cfg.Seed))
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"cxlsim/internal/kvstore"
	"cxlsim/internal/memsim"
	"cxlsim/internal/obs"
	"cxlsim/internal/resp"
	"cxlsim/internal/spill"
	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
	"cxlsim/internal/workload"
)

const (
	respConns     = 2   // client connections
	respDepth     = 16  // commands per pipelined batch, redis-benchmark -P 16
	respValueLen  = 100 // bytes per SET value
	respKeysPerCx = 10_000
)

// respBench serves a pre-generated SET/GET stream from an in-process
// resp.Server over kvstore.RESPBackend, wired as cxlserve -resp wires
// it (same store shape, obs registry, memsim instrumentation). Traced
// iterations also serve a shorter stream from a server whose backend
// writes through to a spill tier at spill's default SyncEvery=1.
type respBench struct {
	work    string
	streams [respConns]*connStream // the in-memory server's
	durable [respConns]*connStream // the spill-backed server's
	runs    int                    // spill directories made so far
}

// connStream is one connection's closed-loop command stream. Each
// connection owns its keys, so the reply to every command is known
// before the run: SET answers +OK, GET the value this connection last
// set for the key (values encode key and version) or null.
type connStream struct {
	batches [][]byte
	cmds    []respCmd
	final   map[string][]byte // key → last value set
	sets    int
}

type respCmd struct {
	set  bool
	want []byte // expected raw reply
}

func newRESP(cfg runConfig) (*respBench, error) {
	// fsync on tmpfs costs nothing, so the spill pass would not measure
	// the path it exists for.
	if fs := fsType(cfg.work); fs == "tmpfs" || fs == "ramfs" {
		return nil, fmt.Errorf("refusing resp: spill directory %s is on %s, where fsync is free", cfg.work, fs)
	}
	n, nDurable := 240_000, 8_000
	if cfg.quick {
		n, nDurable = 2_000, 1_000
	}
	r := &respBench{work: cfg.work}
	for c := range r.streams {
		r.streams[c] = genStream(cfg.seed, c, n/respConns)
		r.durable[c] = genStream(cfg.seed, c, nDurable/respConns)
	}
	return r, nil
}

// genStream draws connection c's commands: 50:50 SET/GET over a
// scrambled-Zipfian choice of this connection's keys.
func genStream(seed int64, c, n int) *connStream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	keys := workload.NewScrambledZipfian(respKeysPerCx, seed*7919+int64(c))
	cs := &connStream{final: map[string][]byte{}}
	version := map[string]int{}
	var batch []byte
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("c%d:key:%05d", c, keys.Next())
		if rng.Intn(2) == 0 {
			version[key]++
			val := respValue(key, version[key])
			batch = resp.EncodeCommand(batch, []byte("SET"), []byte(key), val)
			cs.cmds = append(cs.cmds, respCmd{set: true, want: []byte("+OK\r\n")})
			cs.final[key] = val
			cs.sets++
		} else {
			batch = resp.EncodeCommand(batch, []byte("GET"), []byte(key))
			want := resp.AppendNull(nil)
			if v, ok := cs.final[key]; ok {
				want = resp.AppendBulk(nil, v)
			}
			cs.cmds = append(cs.cmds, respCmd{want: want})
		}
		if (i+1)%respDepth == 0 || i == n-1 {
			cs.batches = append(cs.batches, batch)
			batch = nil
		}
	}
	return cs
}

// respValue is a value of respValueLen bytes naming its key and version.
func respValue(key string, version int) []byte {
	v := []byte(key + ":v" + strconv.Itoa(version) + ":")
	for len(v) < respValueLen {
		v = append(v, 'a'+byte(len(v)%26))
	}
	return v[:respValueLen]
}

// server is one running resp.Server with its backend and spill tier.
type server struct {
	srv     *resp.Server
	reg     *obs.Registry
	tier    *spill.Dir
	dir     string
	timed   *timedBackend
	addr    string
	serveCh chan error
}

// start builds the store, opens a fresh spill directory when durable,
// and listens: the set-up a server pays before its first command.
func (r *respBench) start(durable, traced bool) (*server, error) {
	m := topology.TestbedSNC()
	nodes := m.CXLNodes()
	if len(nodes) == 0 {
		nodes = m.DRAMNodes(0)
	}
	st, err := kvstore.NewStore(m, vmm.NewAllocator(m), kvstore.StoreConfig{
		WorkingSetBytes: 100 << 30,
		SimKeys:         1 << 14,
		MaxMemoryFrac:   1,
		Policy:          vmm.Bind{Nodes: nodes},
	})
	if err != nil {
		return nil, fmt.Errorf("resp store: %w", err)
	}
	s := &server{reg: obs.NewRegistry(), serveCh: make(chan error, 1)}
	obs.InstrumentMemsim(s.reg)
	if durable {
		r.runs++
		s.dir = filepath.Join(r.work, fmt.Sprintf("spill-%d-%d", os.Getpid(), r.runs))
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, err
		}
		s.tier, _, err = spill.Open(spill.Options{Dir: s.dir})
		if err != nil {
			return nil, fmt.Errorf("spill tier: %w", err)
		}
		s.tier.Instrument(s.reg)
	}
	backend := kvstore.NewRESPBackend(st, s.tier)
	backend.Instrument(s.reg)
	var b resp.Backend = backend
	if traced {
		s.timed = &timedBackend{Backend: backend}
		b = s.timed
	}
	s.srv = resp.NewServer(b, resp.Options{Registry: s.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeTier()
		s.remove()
		return nil, fmt.Errorf("resp listener: %w", err)
	}
	s.addr = ln.Addr().String()
	go func() { s.serveCh <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the server, waits for Serve to return, and closes the
// spill tier.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.serveCh; serr != nil && !errors.Is(serr, resp.ErrServerClosed) && err == nil {
		err = serr
	}
	obs.InstrumentMemsim(nil)
	if cerr := s.closeTier(); err == nil {
		err = cerr
	}
	return err
}

func (s *server) closeTier() error {
	if s.tier == nil {
		return nil
	}
	t := s.tier
	s.tier = nil
	return t.Close()
}

// remove deletes the spill directory.
func (s *server) remove() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (r *respBench) probeSetup() ([]float64, error) {
	var ds []float64
	for i := 0; i < 5; i++ {
		c0 := processCPU()
		s, err := r.start(false, false)
		if err != nil {
			return nil, err
		}
		ds = append(ds, (processCPU() - c0).Seconds())
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// connResult is what one client connection saw.
type connResult struct {
	get, set []float64 // per-command latency, µs: batch send to reply
	failed   int
	problems []string
	err      error
}

// pass is what serving one set of streams from one server measured.
type pass struct {
	setup, serve       time.Duration // wall clock
	setupCPU, serveCPU time.Duration // process CPU time
	results            []connResult
	stats              spill.Stats
	snap               obs.Snapshot
	timed              *timedBackend // nil when untraced
	dir                string        // the spill directory, when durable
}

// serve starts a server, plays streams over respConns connections in
// parallel, and stops the server. The spill directory, if any, is left
// for the caller to verify and remove.
func (r *respBench) serve(streams [respConns]*connStream, durable bool, tr *tracer, phase string) (pass, error) {
	var p pass
	p0, t0, c0 := tr.mark(), time.Now(), processCPU()
	s, err := r.start(durable, tr != nil)
	if err != nil {
		return p, err
	}
	p.dir = s.dir
	p.setup, p.setupCPU = time.Since(t0), processCPU()-c0
	tr.span("phase", phase+"-setup", "iteration", p0, nil)

	conns := make([]net.Conn, respConns)
	for c := range conns {
		conns[c], err = net.Dial("tcp", s.addr)
		if err == nil {
			// A server that stops answering fails the run instead of
			// hanging it.
			err = conns[c].SetDeadline(time.Now().Add(2 * time.Minute))
		}
		if err != nil {
			for _, cn := range conns[:c] {
				cn.Close()
			}
			s.stop()
			return p, err
		}
	}
	p.results = make([]connResult, respConns)
	var wg sync.WaitGroup
	p1, t1, c1 := tr.mark(), time.Now(), processCPU()
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p.results[c] = drive(conns[c], streams[c], tr, c)
		}(c)
	}
	wg.Wait()
	p.serve, p.serveCPU = time.Since(t1), processCPU()-c1
	if s.timed != nil {
		tr.span("phase", phase, "iteration", p1, map[string]any{
			"get_calls": s.timed.gets.Load(), "get_busy_ns": s.timed.getNs.Load(),
			"set_calls": s.timed.sets.Load(), "set_busy_ns": s.timed.setNs.Load()})
	}
	for _, cn := range conns {
		cn.Close()
	}
	if s.tier != nil {
		p.stats = s.tier.Stats()
	}
	p.snap = s.reg.Snapshot()
	p.timed = s.timed
	if err := s.stop(); err != nil {
		return p, fmt.Errorf("server stop: %w", err)
	}
	for _, res := range p.results {
		if res.err != nil {
			return p, res.err
		}
	}
	return p, nil
}

// tally counts p's commands and failures into it and returns the
// per-command GET and SET latencies, the commands served, and the SETs
// among them.
func (p pass) tally(it *iteration, streams [respConns]*connStream) (get, set []float64, cmds, sets int) {
	for c, res := range p.results {
		cmds += len(streams[c].cmds)
		sets += streams[c].sets
		it.failed += res.failed
		it.problems = append(it.problems, res.problems...)
		get = append(get, res.get...)
		set = append(set, res.set...)
	}
	it.attempted += cmds
	return get, set, cmds, sets
}

// backendUs returns the mean time inside Backend.Get and Backend.Set,
// in µs, and the mean over both.
func (p pass) backendUs() (get, set, both float64) {
	gets, sets := p.timed.gets.Load(), p.timed.sets.Load()
	getNs, setNs := p.timed.getNs.Load(), p.timed.setNs.Load()
	if gets > 0 {
		get = float64(getNs) / float64(gets) / 1e3
	}
	if sets > 0 {
		set = float64(setNs) / float64(sets) / 1e3
	}
	if gets+sets > 0 {
		both = float64(getNs+setNs) / float64(gets+sets) / 1e3
	}
	return get, set, both
}

func (r *respBench) iterate(tr *tracer) (iteration, error) {
	memsim.ResetSolveCache()
	hits0, misses0, _ := memsim.SolveCacheStats()

	p, err := r.serve(r.streams, false, tr, "serve")
	if err != nil {
		return iteration{}, err
	}
	it := iteration{m: map[string]float64{}, setups: []float64{p.setupCPU.Seconds()}}
	get, set, cmds, sets := p.tally(&it, r.streams)

	it.m["cpu_s"] = (p.setupCPU + p.serveCPU).Seconds()
	it.m["kops_per_cpu_s"] = float64(cmds) / p.serveCPU.Seconds() / 1e3
	it.m["wall_s"] = (p.setup + p.serve).Seconds()
	it.m["host_kops_per_s"] = float64(cmds) / p.serve.Seconds() / 1e3
	it.m["ops_per_s"] = float64(cmds) / p.serve.Seconds()
	it.m["get_p50_us"] = percentile(get, 0.50)
	it.m["get_p99_us"] = percentile(get, 0.99)
	it.m["set_p50_us"] = percentile(set, 0.50)
	it.m["set_p99_us"] = percentile(set, 0.99)
	for _, k := range []string{"get_p50_us", "get_p99_us", "set_p50_us", "set_p99_us"} {
		it.m["resp."+k] = it.m[k]
	}
	it.m["resp.commands"] = float64(cmds)
	it.m["kvstore.ops"] = float64(cmds)
	it.m["memsim.solves"] = familySum(p.snap, obs.MetricSolves)
	hits1, misses1, _ := memsim.SolveCacheStats()
	if n := (hits1 - hits0) + (misses1 - misses0); n > 0 {
		it.m["memsim.cache_hit_ratio"] = float64(hits1-hits0) / float64(n)
	}
	it.det = fmt.Sprint("cmds=", cmds, " sets=", sets, " commands_total=", familySum(p.snap, obs.MetricRESPCommands),
		" errors_total=", familySum(p.snap, obs.MetricRESPErrors))
	if tr == nil {
		return it, nil
	}

	getUs, setUs, bothUs := p.backendUs()
	it.m["resp.get_backend_us"] = getUs
	it.m["resp.set_backend_us"] = setUs
	it.m["resp.wire_us"] = (sum(get)+sum(set))/float64(cmds) - bothUs
	return it, r.durablePass(&it, tr)
}

// durablePass serves the durable streams from a spill-backed server,
// reopens the directory it wrote and checks that every acknowledged SET
// survived, and records the spill.* and resp.durable_* metrics.
func (r *respBench) durablePass(it *iteration, tr *tracer) error {
	p, err := r.serve(r.durable, true, tr, "serve-durable")
	defer os.RemoveAll(p.dir)
	if err != nil {
		return err
	}
	get, set, cmds, sets := p.tally(it, r.durable)
	p2 := tr.mark()
	recovery, lost, err := verifyDurable(p.dir, r.durable)
	if err != nil {
		return err
	}
	tr.span("phase", "verify", "iteration", p2, nil)
	it.failed += lost
	if lost > 0 {
		it.problems = append(it.problems, fmt.Sprintf("%d acknowledged SETs missing or wrong after reopen", lost))
	}
	it.m["spill.recover_s"] = recovery.Seconds()
	it.m["spill.fsyncs"] = float64(p.stats.Fsyncs)
	it.m["spill.fsyncs_per_set"] = float64(p.stats.Fsyncs) / float64(sets)
	it.m["spill.write_amp"] = p.stats.WriteAmplification()
	it.m["resp.durable_ops_per_s"] = float64(cmds) / p.serve.Seconds()
	it.m["resp.durable_get_p99_us"] = percentile(get, 0.99)
	it.m["resp.durable_set_p99_us"] = percentile(set, 0.99)
	it.m["resp.durable_get_backend_us"], it.m["resp.durable_set_backend_us"], _ = p.backendUs()
	it.detTraced = fmt.Sprint("cmds=", cmds, " sets=", sets, " fsyncs=", p.stats.Fsyncs, " records=", p.stats.RecordsWritten,
		" user_bytes=", p.stats.UserBytes, " commands_total=", familySum(p.snap, obs.MetricRESPCommands),
		" errors_total=", familySum(p.snap, obs.MetricRESPErrors))
	return nil
}

// verifyDurable reopens the spill directory that serving streams wrote
// and counts acknowledged SETs whose final value is missing or wrong: no
// acknowledged write may be lost.
func verifyDurable(dir string, streams [respConns]*connStream) (time.Duration, int, error) {
	t0 := time.Now()
	d, _, err := spill.Open(spill.Options{Dir: dir})
	if err != nil {
		return 0, 0, fmt.Errorf("reopen spill tier: %w", err)
	}
	recovery := time.Since(t0)
	lost := 0
	for _, cs := range streams {
		for key, want := range cs.final {
			got, ok, err := d.Get([]byte(key))
			if err != nil || !ok || !bytes.Equal(got, want) {
				lost++
			}
		}
	}
	return recovery, lost, d.Close()
}

// drive plays one connection's stream in a closed loop: send a batch,
// read its replies, check each against the expected one.
func drive(conn net.Conn, cs *connStream, tr *tracer, c int) connResult {
	res := connResult{get: make([]float64, 0, len(cs.cmds)), set: make([]float64, 0, len(cs.cmds))}
	br := bufio.NewReaderSize(conn, 64<<10)
	track := "conn" + strconv.Itoa(c)
	var reply []byte
	next := 0
	for _, batch := range cs.batches {
		ps, start := tr.mark(), time.Now()
		if _, err := conn.Write(batch); err != nil {
			res.err = fmt.Errorf("conn %d: write: %w", c, err)
			return res
		}
		end := next + respDepth
		if end > len(cs.cmds) {
			end = len(cs.cmds)
		}
		for ; next < end; next++ {
			var err error
			reply, err = readReply(br, reply[:0])
			if err != nil {
				res.err = fmt.Errorf("conn %d: read reply %d: %w", c, next, err)
				return res
			}
			us := float64(time.Since(start).Nanoseconds()) / 1e3
			cmd := cs.cmds[next]
			if cmd.set {
				res.set = append(res.set, us)
			} else {
				res.get = append(res.get, us)
			}
			if !bytes.Equal(reply, cmd.want) {
				res.failed++
				if len(res.problems) < 5 {
					res.problems = append(res.problems, fmt.Sprintf("conn %d command %d: got %q, want %q", c, next, reply, cmd.want))
				}
			}
		}
		tr.span(track, "batch", "serve", ps, nil)
	}
	return res
}

// readReply appends one raw RESP reply (simple string, error, integer,
// or bulk string) to buf.
func readReply(br *bufio.Reader, buf []byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return buf, err
	}
	buf = append(buf, line...)
	if line[0] != '$' {
		return buf, nil
	}
	n, err := strconv.Atoi(string(bytes.TrimSpace(line[1:])))
	if err != nil {
		return buf, fmt.Errorf("bad bulk length %q", line)
	}
	if n < 0 {
		return buf, nil
	}
	start := len(buf)
	buf = append(buf, make([]byte, n+2)...)
	_, err = io.ReadFull(br, buf[start:])
	return buf, err
}

// percentile is the exact q-quantile of vs by the nearest-rank rule.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

// familySum adds every child of a counter or gauge family (0 when absent).
func familySum(s obs.Snapshot, name string) float64 {
	fam, ok := s.Find(name)
	if !ok {
		return 0
	}
	var v float64
	for _, m := range fam.Metrics {
		v += m.Value
	}
	return v
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"thedb/client"
	"thedb/internal/metrics"
	"thedb/internal/obs"
	"thedb/internal/storage"
	"thedb/internal/wire"
	"thedb/internal/workload/smallbank"
	"thedb/internal/workload/zipf"
)

const (
	// sbAccounts sizes the SmallBank tables so that a restart loads
	// enough checkpoint rows to stand well above process start-up.
	sbAccounts = 100_000
	sbTheta    = 0.8
	// sbClients is smallbank-net's closed-loop client count. With two,
	// client and server together saturate both cores of the host this
	// was sized on, and the p99 latency of one run differed from the
	// next by 40% as other guests came and went; with one, by 4 to 8%
	// while the host was calm.
	sbClients = 1
	sbRate    = 60_000 // bounds calls per second, to size the sample buffers
	// sbStretch lets a measured run last up to twice its length while
	// it waits for seconds in which other guests leave the host alone.
	// Every call passes between two processes, so a crowded host slows
	// smallbank-net far more than the local workloads: with 20 to 40%
	// of host CPU stolen throughout a run, it lost a third of its
	// throughput and its p95 nearly doubled.
	sbStretch = 2

	// sbCheckpointEvery keeps online checkpoints running through every
	// measured run: two in 20 seconds. Each rewrites all 300k rows,
	// so at a shorter cadence they dominate the server's CPU.
	sbCheckpointEvery = "10s"

	readyTimeout = 60 * time.Second
	drainTimeout = 60 * time.Second

	// keptResults is how many committed calls per client a traced run
	// keeps to replay through the wire codec.
	keptResults = 4096
)

// sbGen draws the six SmallBank procedures uniformly over zipf-skewed
// accounts. Balance is read-only and goes through CallSnapshot.
func sbGen(seed int64, client int) func() request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 500_009 + int64(client)))
	zg := zipf.New(sbAccounts, sbTheta)
	acct := func() storage.Value { return storage.Int(int64(zg.Next(rng.Float64()))) }
	// Two-account procedures need distinct accounts: amalgamating an
	// account into itself would create money.
	pair := func() (storage.Value, storage.Value) {
		a := acct()
		for {
			if b := acct(); b != a {
				return a, b
			}
		}
	}
	return func() request {
		amt := storage.Int(int64(1 + rng.Intn(100)))
		switch rng.Intn(6) {
		case 0:
			return request{proc: smallbank.ProcBalance, args: []storage.Value{acct()}, readOnly: true}
		case 1:
			return request{proc: smallbank.ProcDepositChecking, args: []storage.Value{acct(), amt}}
		case 2:
			return request{proc: smallbank.ProcTransactSavings, args: []storage.Value{acct(), amt}}
		case 3:
			a, b := pair()
			return request{proc: smallbank.ProcAmalgamate, args: []storage.Value{a, b}}
		case 4:
			return request{proc: smallbank.ProcWriteCheck, args: []storage.Value{acct(), amt}}
		default:
			a, b := pair()
			return request{proc: smallbank.ProcSendPayment, args: []storage.Value{a, b, amt}}
		}
	}
}

// server is one thedb-server process.
type server struct {
	cmd       *exec.Cmd
	addr, obs string
	started   time.Time
	stderr    *lockedBuffer
	done      chan struct{} // closed once the process has exited
	err       error         // exit status, valid after done
}

// lockedBuffer collects a child's stderr while it runs.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// live tracks running servers so that an interrupted benchmark does
// not leave one behind.
var live = struct {
	sync.Mutex
	m map[*server]bool
}{m: map[*server]bool{}}

var watchSignals sync.Once

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs a SmallBank server with durable logging and
// online checkpoints in dir. traced turns on its trace ring with every
// transaction counted as slow, so /debug/trace holds the latest ones.
func startServer(bin, dir string, traced bool) (*server, error) {
	watchSignals.Do(func() {
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			sig := <-sigs
			live.Lock()
			for s := range live.m {
				_ = s.cmd.Process.Kill()
				<-s.done
			}
			fmt.Fprintf(os.Stderr, "perfbench: %v: servers stopped\n", sig)
			os.Exit(1)
		}()
	})
	if bin == "" {
		return nil, fmt.Errorf("smallbank-net needs --server")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	obsAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-obs.addr", obsAddr, "-workers", strconv.Itoa(clients),
		"-workload", "smallbank", "-sb.accounts", strconv.Itoa(sbAccounts),
		"-wal.dir", dir, "-checkpoint.every", sbCheckpointEvery}
	if traced {
		args = append(args, "-trace.buffer", strconv.Itoa(traceBuffer), "-trace.slow", "1us")
	}
	s := &server{addr: addr, obs: obsAddr, stderr: &lockedBuffer{}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stderr = s.stderr
	// The server dies with the benchmark even if the benchmark is
	// killed outright.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	live.Lock()
	defer live.Unlock()
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	live.m[s] = true
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// ready polls until a Balance call commits and returns the time since
// exec.
func (s *server) ready() (time.Duration, error) {
	ctx := context.Background()
	for time.Since(s.started) < readyTimeout {
		select {
		case <-s.done:
			return 0, fmt.Errorf("server exited before serving (%v):\n%s", s.err, s.stderr)
		default:
		}
		c, err := client.Dial(s.addr, client.Options{RetryAttempts: -1, DialTimeout: time.Second})
		if err == nil {
			_, err = c.Call(ctx, smallbank.ProcBalance, storage.Int(0))
			_ = c.Close()
			if err == nil {
				return time.Since(s.started), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("server not serving after %v:\n%s", readyTimeout, s.stderr)
}

// stop signals the server and waits for it to exit. SIGTERM is the
// graceful drain, which must exit 0.
func (s *server) stop(sig syscall.Signal) error {
	defer func() {
		live.Lock()
		delete(live.m, s)
		live.Unlock()
	}()
	_ = s.cmd.Process.Signal(sig)
	select {
	case <-s.done:
	case <-time.After(drainTimeout):
		_ = s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("server ignored %v for %v", sig, drainTimeout)
	}
	if sig == syscall.SIGTERM && s.err != nil {
		return fmt.Errorf("server drain: %v:\n%s", s.err, s.stderr)
	}
	return nil
}

// cpu is the server's user plus system CPU time so far, from
// /proc/<pid>/stat in clock ticks of 10ms.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS is the server's resident-set high-water mark in bytes.
func (s *server) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape reads the server's /metrics into series → value; a labelled
// series keeps its labels in the key.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.obs + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// Drop an exemplar suffix, then split series and value.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// promAggregate rebuilds the engine counters /metrics exposes, so
// local and network runs derive the per-layer counts the same way.
func promAggregate(m map[string]float64) *metrics.Aggregate {
	a := &metrics.Aggregate{}
	i := func(name string) int64 { return int64(m[name]) }
	a.Committed = i("thedb_committed_total")
	a.Restarts = i("thedb_restarts_total")
	a.Heals = i("thedb_heals_total")
	a.HealedOps = i("thedb_healed_ops_total")
	a.FalseInval = i("thedb_false_invalidations_total")
	a.SnapshotReads = i("thedb_snapshot_reads_total")
	a.VersionsInstalled = i("thedb_mvcc_versions_installed_total")
	a.MVCCVersionsReclaimed = i("thedb_mvcc_versions_reclaimed_total")
	a.WALBytes = i("thedb_wal_bytes_total")
	a.WALFrames = i("thedb_wal_frames_total")
	a.LogSyncs = i("thedb_log_syncs_total")
	a.LogSyncFailures = i("thedb_log_sync_failures_total")
	for p := 0; p < metrics.NumPhases; p++ {
		a.PhaseNS[p] = int64(m[fmt.Sprintf("thedb_phase_seconds_total{phase=%q}", metrics.Phase(p))] * 1e9)
	}
	return a
}

// traces fetches the server's retained transaction traces.
func (s *server) traces() ([]obs.Trace, error) {
	resp, err := http.Get("http://" + s.obs + "/debug/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /debug/trace: %w", err)
	}
	return body.Traces, nil
}

// recoveryReport parses the boot recovery line a server with a WAL
// directory prints on stderr.
func (s *server) recoveryReport() (map[string]any, error) {
	const tag = "thedb-server: recovery "
	for _, line := range strings.Split(s.stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, tag); ok {
			var rep map[string]any
			return rep, json.Unmarshal([]byte(rest), &rep)
		}
	}
	return nil, fmt.Errorf("no recovery report on stderr:\n%s", s.stderr)
}

// digestReaders is how many goroutines read balances for the
// digest. The reads are a check, not a measured workload, so they
// pipeline over the client's connections to keep runs short.
const digestReaders = 16

// balances reads every account's Balance with client.Call.
func balances(addr string) ([]int64, error) {
	c, err := client.Dial(addr, client.Options{Conns: clients})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out := make([]int64, sbAccounts)
	errs := make([]error, digestReaders)
	var wg sync.WaitGroup
	for g := 0; g < digestReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < sbAccounts; i += digestReaders {
				res, err := c.Call(context.Background(), smallbank.ProcBalance, storage.Int(int64(i)))
				if err != nil {
					errs[g] = fmt.Errorf("Balance(%d): %w", i, err)
					return
				}
				out[i] = res.Val("total").Int()
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// digest is FNV-1a over every (account, balance) pair in order.
func digest(bals []int64) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for i, v := range bals {
		binary.LittleEndian.PutUint64(b[:8], uint64(i))
		binary.LittleEndian.PutUint64(b[8:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// compareBalances reports the first account whose balance differs.
func compareBalances(before, after []int64) error {
	if len(before) != len(after) {
		return fmt.Errorf("balance count %d before the drain, %d after the reboot", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			return fmt.Errorf("account %d: balance %d before the drain, %d after the reboot (digests %016x, %016x)",
				i, before[i], after[i], digest(before), digest(after))
		}
	}
	return nil
}

// netRun is one measured stretch against one server.
type netRun struct {
	*record
	m0, m1  map[string]float64
	cpu     time.Duration
	mallocs uint64
	peak    float64
	kept    [][]keptCall
}

type keptCall struct {
	req request
	res *client.Result
}

// measureNet warms the server up and runs the workload against it
// for dur through one client.Client with a connection per closed-loop
// client.
func measureNet(s *server, l *loop, seed int64, dur time.Duration, keep bool) (*netRun, error) {
	c, err := client.Dial(s.addr, client.Options{Conns: len(l.clients)})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	r := &netRun{kept: make([][]keptCall, len(l.clients))}
	if keep {
		for i := range r.kept {
			r.kept[i] = make([]keptCall, 0, keptResults)
		}
	}
	ctx := context.Background()
	do := func(cl int, q request) error {
		var res *client.Result
		var err error
		if q.readOnly {
			res, err = c.CallSnapshot(ctx, q.proc, q.args...)
		} else {
			res, err = c.Call(ctx, q.proc, q.args...)
		}
		if err == nil && len(r.kept[cl]) < cap(r.kept[cl]) {
			r.kept[cl] = append(r.kept[cl], keptCall{q, res})
		}
		return err
	}
	gens := make([]func() request, len(l.clients))
	for i := range gens {
		gens[i] = sbGen(seed, i)
	}
	r.record, err = l.measure(gens, do, dur, func() (func() error, error) {
		var err error
		if r.m0, err = s.scrape(); err != nil {
			return nil, err
		}
		cpu0, err := s.cpu()
		if err != nil {
			return nil, err
		}
		ms0 := memStats()
		return func() error {
			ms1 := memStats()
			cpu1, err := s.cpu()
			if err != nil {
				return err
			}
			r.cpu, r.mallocs = cpu1-cpu0, ms1.Mallocs-ms0.Mallocs
			if r.m1, err = s.scrape(); err != nil {
				return err
			}
			r.peak, err = s.peakRSS()
			return err
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// restartCheck reads every balance, drains the server, reboots it
// from its directory and reads them again. It returns the reboot, the
// time from its exec to its first committed call, and the gate
// verdict.
func restartCheck(s *server, bin, dir string) (*server, time.Duration, error, error) {
	t0 := time.Now()
	before, err := balances(s.addr)
	readBefore := time.Since(t0)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := s.stop(syscall.SIGTERM); err != nil {
		return nil, 0, nil, err
	}
	rs, err := startServer(bin, dir, false)
	if err != nil {
		return nil, 0, nil, err
	}
	d, err := rs.ready()
	if err != nil {
		_ = rs.stop(syscall.SIGKILL)
		return nil, 0, nil, err
	}
	t0 = time.Now()
	after, err := balances(rs.addr)
	if err != nil {
		_ = rs.stop(syscall.SIGKILL)
		return nil, 0, nil, err
	}
	fmt.Printf("balance digest %016x before the drain, %016x after the reboot (%d accounts, read in %.2fs and %.2fs)\n",
		digest(before), digest(after), len(before), readBefore.Seconds(), time.Since(t0).Seconds())
	return rs, d, compareBalances(before, after), nil
}

func runSmallbankNet(o opts) (*result, error) {
	root := filepath.Join(o.workdir, fmt.Sprintf("smallbank-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	if o.traced {
		return smallbankTraced(o, root)
	}
	res := newResult()
	l := newLoop(sbClients, sbRate, o.dur, sbStretch)
	var setups []float64
	var s *server
	var dir string
	for i := 0; i < setupReps; i++ {
		dir = filepath.Join(root, fmt.Sprintf("wal-%d", i))
		var err error
		if s, err = startServer(o.server, dir, false); err != nil {
			return nil, err
		}
		d, err := s.ready()
		if err != nil {
			_ = s.stop(syscall.SIGKILL)
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			if err := s.stop(syscall.SIGKILL); err != nil {
				return nil, err
			}
		}
	}
	r, err := measureNet(s, l, o.seed, o.dur, false)
	if err != nil {
		_ = s.stop(syscall.SIGKILL)
		return nil, err
	}
	rs, restart, gate, err := restartCheck(s, o.server, dir)
	if err != nil {
		_ = s.stop(syscall.SIGKILL)
		return nil, err
	}
	fmt.Printf("restart_s %.6f\n", restart.Seconds())
	if err := rs.stop(syscall.SIGTERM); err != nil {
		return nil, err
	}
	res.gate = gate
	genAllocs, _ := r.replay(sbGen, o.seed)
	r.report(res)

	res.vals["throughput_tps"] = r.sum.tps
	res.vals["latency_p50_us"] = r.sum.p50
	res.vals["latency_p95_us"] = r.sum.p95
	res.vals["cpu_us_per_txn"] = ratio(float64(r.cpu.Microseconds()), float64(r.commits))
	res.vals["allocs_per_txn"] = ratio(float64(r.mallocs)-float64(genAllocs), float64(r.commits))
	res.vals["mem_mb"] = r.peak / 1e6
	res.vals["setup_s"] = median(setups)
	fmt.Printf("setup_s runs %v\n", setups)
	return res, nil
}

// smallbankTraced fills the per-layer metrics of smallbank-net: an
// untraced server for the counts, the restart and the gate, a traced
// one for the per-phase server latencies and the tracing overhead,
// then the wire codec, planning and storage lookups on the run's own
// calls.
func smallbankTraced(o opts, root string) (*result, error) {
	res := newResult()
	half := o.dur / 2
	l := newLoop(sbClients, sbRate, half, sbStretch)

	dir := filepath.Join(root, "wal-untraced")
	s, err := startServer(o.server, dir, false)
	if err != nil {
		return nil, err
	}
	if _, err := s.ready(); err != nil {
		_ = s.stop(syscall.SIGKILL)
		return nil, err
	}
	a, err := measureNet(s, l, o.seed, half, true)
	if err != nil {
		_ = s.stop(syscall.SIGKILL)
		return nil, err
	}
	rs, restart, gate, err := restartCheck(s, o.server, dir)
	if err != nil {
		_ = s.stop(syscall.SIGKILL)
		return nil, err
	}
	rep, repErr := rs.recoveryReport()
	if err := rs.stop(syscall.SIGTERM); err != nil {
		return nil, err
	}
	if repErr != nil {
		return nil, repErr
	}
	res.gate = gate
	a.report(res)
	engineCounts(res, promAggregate(a.m0), promAggregate(a.m1), a.wall)
	d := func(name string) float64 { return a.m1[name] - a.m0[name] }
	requests := d("thedb_server_requests_total")
	res.vals["server.shed_ratio"] = ratio(d("thedb_server_shed_total"), requests+d("thedb_server_shed_total"))
	res.vals["server.bytes_in_per_call"] = ratio(d("thedb_server_bytes_in_total"), requests)
	res.vals["server.bytes_out_per_call"] = ratio(d("thedb_server_bytes_out_total"), requests)
	res.vals["server.dedup_hits"] = d("thedb_server_dedup_hits_total")
	res.vals["checkpoint.taken"] = d("thedb_checkpoint_taken_total")
	res.vals["checkpoint.last_duration_s"] = a.m1["thedb_checkpoint_last_duration_seconds"]
	res.vals["checkpoint.last_bytes"] = a.m1["thedb_checkpoint_last_bytes"]
	num := func(k string) float64 { v, _ := rep[k].(float64); return v }
	res.vals["recovery.wall_ms"] = num("wall_ms")
	res.vals["recovery.checkpoint_rows"] = num("checkpoint_rows")
	res.vals["recovery.groups_applied"] = num("groups_applied")
	res.vals["restart_s"] = restart.Seconds()
	genCost(res, a.record, sbGen, o.seed)

	s, err = startServer(o.server, filepath.Join(root, "wal-traced"), true)
	if err != nil {
		return nil, err
	}
	if _, err := s.ready(); err != nil {
		_ = s.stop(syscall.SIGKILL)
		return nil, err
	}
	b, err := measureNet(s, l, o.seed, half, false)
	if err != nil {
		_ = s.stop(syscall.SIGKILL)
		return nil, err
	}
	trs, err := s.traces()
	if err := errors.Join(err, s.stop(syscall.SIGKILL)); err != nil {
		return nil, err
	}
	var queue, execUS, walUS, resp, total []int64
	for _, t := range trs {
		if t.Outcome != obs.TraceCommitted {
			continue
		}
		queue, execUS, walUS = append(queue, t.QueueUS), append(execUS, t.ExecUS), append(walUS, t.WALUS)
		resp, total = append(resp, t.RespUS), append(total, t.TotalUS)
	}
	fmt.Printf("traced half: %d committed traces from /debug/trace\n", len(total))
	res.vals["server.queue_us_p50"] = groupedPercentile(queue, 50)
	res.vals["server.exec_us_p50"] = groupedPercentile(execUS, 50)
	res.vals["server.wal_us_p50"] = groupedPercentile(walUS, 50)
	res.vals["server.resp_us_p50"] = groupedPercentile(resp, 50)
	res.vals["server.total_us_p50"] = groupedPercentile(total, 50)
	res.vals["client.overhead_us_p50"] = b.sum.p50 - res.vals["server.total_us_p50"]
	res.vals["obs.trace_overhead_pct"] = 100 * ratio(a.sum.tps-b.sum.tps, a.sum.tps)

	var calls []wire.Call
	var outs [][]wire.Output
	for _, kc := range a.kept {
		for _, k := range kc {
			calls = append(calls, wire.Call{Proc: k.req.proc, Args: k.req.args, Seq: uint64(len(calls) + 1), ReadOnly: k.req.readOnly})
			var o []wire.Output
			for _, name := range k.res.Names() {
				o = append(o, wire.Output{Name: name, Vals: []storage.Value{k.res.Val(name)}})
			}
			outs = append(outs, o)
		}
	}
	if res.vals["wire.codec_ns_per_call"], res.vals["wire.codec_allocs_per_call"], err = codecCost(calls, outs); err != nil {
		return nil, err
	}
	reqs := drawRequests(sbGen, o.seed, sbClients, 20_000)
	res.vals["proc.instantiate_ns"], res.vals["proc.instantiate_allocs"] = instantiateCost(smallbank.Specs(), reqs)
	cat := storage.NewCatalog()
	for _, sc := range smallbank.Schemas(0) {
		cat.MustCreateTable(sc)
	}
	if err := smallbank.Populate(cat, sbAccounts, 10000, 10000); err != nil {
		return nil, err
	}
	res.vals["storage.get_ns"] = getCost(cat, reqs, func(r request) (string, []storage.Key) {
		return smallbank.TabChecking, []storage.Key{storage.Key(r.args[0].Int())}
	})
	return res, nil
}

// Command perfbench is THEDB's benchmark: one closed-loop workload per
// run, measured end to end with tracing off (--trace 0) or layer by
// layer (--trace 1). It prints every metric by name and unit, then one
// JSON result line, and exits non-zero when a correctness gate fails.
// See README.md for the workloads and how to run it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clients is the engine's worker count and the local workloads'
// closed-loop client count: the host this was sized on has two cores.
const clients = 2

// windowsFor splits a measured run into windows of about three
// seconds, and at least ten; the end-to-end figures pool the quiet
// ones (see summarize).
func windowsFor(dur time.Duration) int { return max(10, int(dur/(3*time.Second))) }

// opts are one run's settings.
type opts struct {
	seed    int64
	dur     time.Duration // measured time; a traced run splits it in two
	traced  bool
	server  string // thedb-server binary (smallbank-net)
	workdir string // working directory for server WAL directories
}

// workload is one named workload's runner, its closed-loop client
// count and the GOMAXPROCS of the benchmark process while it runs.
type workload struct {
	run     func(opts) (*result, error)
	clients int
	procs   int
}

// workloads maps each workload name to its runner. On the local
// workloads the benchmark process is the engine and keeps Go's
// default GOMAXPROCS. smallbank-net's client mostly waits on the
// network; one P keeps its CPU use from competing with the server's
// two workers on a two-core host.
var workloads = map[string]workload{
	"ycsb-local":    {run: ycsbLocal.run, clients: clients},
	"tpcc-local":    {run: tpccLocal.run, clients: clients},
	"smallbank-net": {run: runSmallbankNet, clients: sbClients, procs: 1},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "ycsb-local | tpcc-local | smallbank-net")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics")
	server := flag.String("server", "", "thedb-server binary (needed by smallbank-net)")
	workdir := flag.String("workdir", "", "working directory for server WAL directories")
	root := flag.String("root", ".", "repository root, for the source stamp")
	flag.Parse()

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		return 2
	}
	if err := checkDefs(endToEnd, perLayer); err != nil {
		return fail("%v", err)
	}
	wl, ok := workloads[*name]
	if !ok {
		return fail("unknown --workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	if *workdir == "" {
		*workdir = filepath.Join(os.TempDir(), "perfbench")
	}
	o := opts{seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		server: *server, workdir: *workdir}

	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
	stamp, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"commit": sourceStamp(*root), "clients": wl.clients, "engine_workers": clients,
	})
	fmt.Printf("env %s\n", stamp)

	res, err := wl.run(o)
	if err != nil {
		return fail("%s: %v", *name, err)
	}
	defs, required := endToEnd, true
	if o.traced {
		defs, required = perLayer, false
	}
	for _, d := range defs {
		fmt.Printf("metric %-32s %14.6g %s\n", d.name, res.vals[d.name], d.unit)
	}
	line, err := res.resultLine(defs, required)
	if err != nil {
		return fail("%s: %v", *name, err)
	}
	if res.gate != nil {
		fmt.Printf("gate FAILED: %v\n", res.gate)
	} else {
		fmt.Println("gate ok")
	}
	fmt.Println(string(line))
	if res.gate != nil {
		return 1
	}
	return 0
}

// sourceStamp identifies the code under test: the git commit when the
// root is a git work tree, else a digest of the Go sources and module
// files under root.
func sourceStamp(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuSelf is this process's user plus system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// hostTicks reads the host-wide CPU tick counters: all ticks, and the
// ticks stolen by the hypervisor for other guests.
func hostTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// Command bench is the repository's one benchmark: it builds
// cmd/spannerd, boots it as a separate process, loads a seeded fixture,
// replays a fixed seeded operation sequence over loopback HTTP from two
// closed-loop connections, checks every response against an in-process
// oracle, and prints every metric by name with its unit. See README.md.
//
//	bash bench/run.sh --workload serve_plain [--seed N] [--seconds S] [--trace 0|1]
//	bash bench/run.sh --aa 10
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// numConns is the number of closed-loop client connections: one per
// core of the two-core box. One connection ping-pongs client and server
// through idle wake-ups and reads noisier and slower per op.
const numConns = 2

// setupRepeats is how often a run boots and loads a server; setup_s is
// the median, so that one slow spawn does not decide it.
const setupRepeats = 3

type config struct {
	wl      *workload
	seed    int64
	seconds int
	trace   bool
	conns   int // numConns; the tests run one, where responses repeat exactly
	setups  int // servers booted for setup_s; the last serves the rounds
	root    string
	bin     string
}

func main() { os.Exit(run()) }

func run() (code int) {
	var (
		wlName  = flag.String("workload", "", "workload: serve_plain | serve_slp | edit_views_disk | register_adhoc")
		seed    = flag.Int64("seed", 1, "seed of fixture and operation sequence")
		seconds = flag.Int("seconds", refSeconds, "size of the run: the committed op counts apply at "+fmt.Sprint(refSeconds))
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics), 0: the timed run (end-to-end metrics)")
		aa      = flag.Int("aa", 0, "A/A check: run every workload N times, alternating two sets, and compare their medians")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}

	// Every exit path kills the server's process group: normal return and
	// panics through the deferred call, signals through the handler.
	defer stopAllServers()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "bench: %v: stopping servers\n", s)
		stopAllServers()
		os.Exit(130)
	}()

	if *aa > 0 {
		return runAA(*aa, *seconds)
	}
	cfg := config{wl: findWorkload(*wlName), seed: *seed, seconds: *seconds, trace: *trace == 1, conns: numConns, setups: setupRepeats}
	if cfg.wl == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *wlName)
		return 2
	}
	var err error
	if cfg.root, err = findRoot(); err == nil {
		err = preflight(cfg.root)
	}
	if err == nil {
		cfg.bin, err = buildServer(cfg.root)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sc := cfg.wl.build(rand.New(rand.NewSource(cfg.seed)), float64(cfg.seconds)/refSeconds)
	printEnv(cfg, sc)

	var res *result
	if cfg.trace {
		res, err = runTraced(cfg, sc)
	} else {
		res, err = runTimed(cfg, sc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.print()
	if !res.Correct {
		return 1
	}
	return 0
}

// --- environment block ---

func printEnv(cfg config, sc *script) {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	units, ops := 0, [2]int{}
	for _, r := range sc.rounds[1:] {
		units += len(r)
		for _, u := range r {
			for _, o := range u {
				if o.kind.isWrite() {
					ops[1]++
				} else {
					ops[0]++
				}
			}
		}
	}
	fsync := cfg.wl.fsync
	if fsync == "" {
		fsync = "n/a (memory backend)"
	}
	fmt.Printf("# env workload=%s seed=%d seconds=%d trace=%t conns=%d\n", cfg.wl.name, cfg.seed, cfg.seconds, cfg.trace, cfg.conns)
	fmt.Printf("# env commit=%s go=%s nproc=%d gomaxprocs=%d fsync=%s\n", commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), fsync)
	fmt.Printf("# env rounds=%d warmup_units=%d timed_units=%d timed_ops=%d (read %d, write %d) setup_ops=%d\n",
		numRounds, len(sc.rounds[0]), units, ops[0]+ops[1], ops[0], ops[1], len(sc.setup))
	fmt.Printf("# sequence_sha256=%s\n", sc.digest())
}

// digest is the SHA-256 of everything the script sends, in order.
func (sc *script) digest() string {
	h := sha256.New()
	add := func(o *op) { fmt.Fprintf(h, "%s %s %d\n%s\n", o.method, o.path, o.ticket, o.body) }
	for _, o := range sc.setup {
		add(o)
	}
	for _, r := range sc.rounds {
		for _, u := range r {
			for _, o := range u {
				add(o)
			}
			fmt.Fprintln(h, "--")
		}
		fmt.Fprintln(h, "==")
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// --- one server instance ---

// instance is a booted, loaded, warmed-up server with its clients.
type instance struct {
	proc  *serverProc
	world *world
	conns []*conn
	// fails collects verification failures (set-up, warm-up, rounds,
	// barriers); attempted counts the ops they are measured against.
	fails     []string
	attempted int
}

func (in *instance) stop() {
	for _, c := range in.conns {
		c.close()
	}
	in.proc.stop()
}

func (in *instance) fail(format string, args ...any) {
	in.fails = append(in.fails, fmt.Sprintf(format, args...))
}

// startInstance is the set-up: spawn → /readyz → fixture loaded → warm-up
// round done. It returns the instance and how long all of that took.
func startInstance(cfg config, sc *script) (*instance, time.Duration, error) {
	start := time.Now()
	proc, err := spawnServer(cfg.root, cfg.bin, cfg.wl.name, cfg.wl.flags)
	if err != nil {
		return nil, 0, err
	}
	in := &instance{proc: proc, world: newWorld()}
	for i := 0; i < cfg.conns; i++ {
		in.conns = append(in.conns, newConn(proc.base))
	}
	for _, o := range sc.setup {
		ob := in.world.run(in.conns[0], o)
		if ob.err != nil {
			in.stop()
			return nil, 0, fmt.Errorf("set-up %s %s: %w", o.method, o.path, ob.err)
		}
	}
	in.runRound(sc.rounds[0])
	return in, time.Since(start), nil
}

// roundResult is one round's raw material for the per-round metrics.
type roundResult struct {
	obs  [][]obs // per connection, in the order sent
	wall time.Duration
	cpu  float64 // server CPU seconds spent during the round
}

// runRound replays units from the shared queue on every connection and
// verifies the observations after the barrier.
func (in *instance) runRound(units []unit) roundResult {
	res := roundResult{obs: make([][]obs, len(in.conns))}
	cpu0, err0 := in.proc.cpuSeconds()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range in.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				for _, o := range units[i] {
					res.obs[ci] = append(res.obs[ci], in.world.run(c, o))
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	cpu1, err1 := in.proc.cpuSeconds()
	if err0 != nil || err1 != nil {
		in.fail("reading server CPU time: %v %v", err0, err1)
	}
	res.cpu = cpu1 - cpu0

	for ci := range res.obs {
		lastVersion := map[string]int{}
		for i := range res.obs[ci] {
			ob := &res.obs[ci][i]
			in.attempted++
			if msg := in.world.verify(ob); msg != "" {
				if ob.err == nil {
					ob.err = fmt.Errorf("%s", msg)
				}
				in.fail("%s", msg)
				continue
			}
			// One connection sends an op only after the previous answer,
			// so the versions it reads of a document never go back.
			if ob.op.doc != "" && ob.version > 0 && !ob.op.kind.isWrite() && ob.op.kind != opViewGet && ob.op.kind != opChanges {
				if ob.version < lastVersion[ob.op.doc] {
					in.fail("%s: version went back from %d to %d", ob.op.path, lastVersion[ob.op.doc], ob.version)
				}
				lastVersion[ob.op.doc] = ob.version
			}
		}
	}
	return res
}

// checkViews is the barrier check of the edit workload: with no edit in
// flight, every live view must hold exactly what a fresh /eval returns.
func (in *instance) checkViews(sc *script) {
	for _, q := range sc.views {
		view, err1 := in.conns[0].get("/docs/" + editedDoc + "/views/" + q + "?tuples=1&content=0")
		eval, err2 := in.conns[0].get("/eval?query=" + q + "&doc=" + editedDoc + "&content=0")
		in.attempted++
		if err1 != nil || err2 != nil {
			in.fail("barrier check of view %s: %v %v", q, err1, err2)
			continue
		}
		vv, _ := jsonInt(view, "version", true)
		ev, _ := jsonInt(eval, "version", true)
		if vv != ev || tuplesOf(view) == "" || tuplesOf(view) != tuplesOf(eval) {
			in.fail("barrier check: view %s at version %d differs from a fresh /eval at version %d", q, vv, ev)
		}
	}
}

// tuplesOf cuts the "tuples" array out of an /eval or view body; both
// print it at the same depth, followed by "version".
func tuplesOf(body []byte) string {
	s := string(body)
	i := strings.Index(s, `"tuples": `)
	j := strings.LastIndex(s, `"version"`)
	if i < 0 || j < i {
		return ""
	}
	return s[i:j]
}

// --- the timed run ---

// endToEnd lists the end-to-end metrics in print order with their units
// and which way is better.
var endToEnd = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p90_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"first_tuple_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// roundMetrics are one round's values of the per-round metrics, and how
// many latency samples stand behind each class's percentiles.
type roundMetrics struct {
	values                   map[string]float64
	reads, writes, firstRows int
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r roundResult) metrics() roundMetrics {
	var read, write, first []float64
	ops := 0
	for _, obs := range r.obs {
		for i := range obs {
			ob := &obs[i]
			ops++
			if ob.err != nil {
				continue // a failed op is missing from every latency
			}
			if ob.op.kind.isWrite() {
				write = append(write, msOf(ob.lat))
			} else {
				read = append(read, msOf(ob.lat))
			}
			if ob.op.kind == opStream {
				first = append(first, msOf(ob.first))
			}
		}
	}
	return roundMetrics{
		values: map[string]float64{
			"ops_per_s":          float64(ops) / r.wall.Seconds(),
			"read_p50_ms":        quantile(read, 0.5),
			"read_p90_ms":        quantile(read, 0.9),
			"write_p50_ms":       quantile(write, 0.5),
			"write_p90_ms":       quantile(write, 0.9),
			"first_tuple_p50_ms": quantile(first, 0.5),
			"cpu_ms_per_op":      1000 * r.cpu / float64(ops),
		},
		reads: len(read), writes: len(write), firstRows: len(first),
	}
}

func runTimed(cfg config, sc *script) (*result, error) {
	res := newResult()
	var in *instance
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			res.absorb(in)
			in.stop()
		}
		var took time.Duration
		var err error
		if in, took, err = startInstance(cfg, sc); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer in.stop()

	perRound := map[string][]float64{}
	byKind := map[string][]float64{}
	var seen []string // what every response held, for responses_sha256
	var last roundMetrics
	var calib []float64
	for r := 1; r <= numRounds; r++ {
		calib = append(calib, msOf(calibrate()))
		rr := in.runRound(sc.rounds[r])
		in.checkViews(sc)
		for _, obs := range rr.obs {
			for i := range obs {
				ob := &obs[i]
				seen = append(seen, fmt.Sprintf("%s %d %d %d %d %d", ob.op.path, ob.status, ob.version, ob.count, ob.tuples, ob.payload))
				if ob.err == nil {
					l := ob.op.label()
					byKind[l] = append(byKind[l], msOf(ob.lat))
				}
			}
		}
		last = rr.metrics()
		fmt.Printf("# round %2d host.calib_ms=%.2f", r, calib[r-1])
		for k, v := range last.values {
			perRound[k] = append(perRound[k], v)
		}
		for _, m := range endToEnd {
			if v, ok := last.values[m.name]; ok {
				fmt.Printf(" %s=%.4f", m.name, v)
			}
		}
		fmt.Println()
	}
	// Every metric is the median over its rounds (set-ups): the same
	// statistic for all, so they describe the same typical round.
	perRound["setup_s"] = setups
	fmt.Print("# best round (informational):")
	for _, m := range endToEnd {
		vs, ok := perRound[m.name]
		if !ok {
			continue
		}
		res.set(m.name, m.unit, median(vs), vs)
		best := 0.0 // the quantile of the round that read best
		if m.better == "higher" {
			best = 1
		}
		fmt.Printf(" %s=%.4f", m.name, quantile(vs, best))
	}
	fmt.Println()
	rss, err := in.proc.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", "MB", rss, nil)
	res.absorb(in)

	printKinds(byKind)
	// What the responses held, order-free. It repeats exactly at one
	// connection (bench_test.go); with two, reads race the other's writes.
	sort.Strings(seen)
	res.responses = fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(seen, "\n"))))
	fmt.Printf("# responses_sha256=%s\n", res.responses)
	// Printed but not a metric: the write class is a twentieth to a sixth
	// of the ops, its p90 rests on two to four samples a round, and the
	// same code's values differ by 20 to 30 % between runs.
	fmt.Printf("# write_p90_ms=%.4f (median of %d rounds; IQR %.1f%%; informational)\n", median(perRound["write_p90_ms"]), numRounds, iqrPct(perRound["write_p90_ms"]))
	fmt.Printf("# samples per round: read=%d write=%d first_tuple=%d\n", last.reads, last.writes, last.firstRows)
	fmt.Printf("# host.calib_ms=%.2f host.calib_iqr_pct=%.1f noisy_host=%t\n", median(calib), iqrPct(calib), iqrPct(calib) > 10)
	return res, nil
}

// printKinds lists the latency of every kind of op in the run, so a
// reader can see which kind a class percentile sits in.
func printKinds(byKind map[string][]float64) {
	labels := make([]string, 0, len(byKind))
	for l := range byKind {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return median(byKind[labels[i]]) < median(byKind[labels[j]]) })
	for _, l := range labels {
		v := byKind[l]
		fmt.Printf("# kind %-34s n=%-5d p50=%8.3f ms p90=%8.3f ms\n", l, len(v), quantile(v, 0.5), quantile(v, 0.9))
	}
}

// --- result ---

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints: the human-readable metric lines, then
// the one-line JSON object the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	rounds    map[string][]float64
	notes     map[string]string // printed after a metric's value
	fails     []string
	responses string // responses_sha256 of a timed run
}

func newResult() *result {
	return &result{Metrics: map[string]metricValue{}, rounds: map[string][]float64{}, notes: map[string]string{}}
}

func (r *result) set(name, unit string, v float64, perRound []float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// No samples behind the metric: a harness bug, or a run in which
		// a whole class failed. Either way not a number to report.
		r.fails = append(r.fails, fmt.Sprintf("metric %s has no value", name))
		r.Failed++
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
	r.rounds[name] = perRound
}

// absorb folds an instance's failure accounting into the result.
func (r *result) absorb(in *instance) {
	r.Attempted += in.attempted
	r.Failed += len(in.fails)
	r.fails = append(r.fails, in.fails...)
	in.attempted, in.fails = 0, nil
}

func (r *result) print() {
	r.Correct = r.Failed == 0
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if pr := r.rounds[n]; len(pr) > 1 {
			fmt.Printf("%-36s %14.4f %-6s (median of %d; IQR %.1f%%)\n", n, m.Value, m.Unit, len(pr), iqrPct(pr))
		} else if note := r.notes[n]; note != "" {
			fmt.Printf("%-36s %14.4f %-6s [%s]\n", n, m.Value, m.Unit, note)
		} else {
			fmt.Printf("%-36s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	for i, f := range r.fails {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "bench: ... and %d more failures\n", len(r.fails)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
	}
	fmt.Printf("failed_ops_pct %.4f %% (%d of %d)\n", 100*float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	line, _ := json.Marshal(r) // numbers and strings only
	fmt.Println(string(line))
}

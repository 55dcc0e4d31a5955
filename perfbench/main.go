// Command perfbench is the repository's end-to-end benchmark. It drives
// the PD² engine, a pd2d node and a replicated two-node cluster from
// outside, through their public Go and HTTP faces, measures what a user
// of each sees, and checks that every output is correct.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload node-reweight --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1. Lines before it start
// with "#" and carry provenance, parameters and details. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is every untraced metric, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sustain_cmd_s", "cmd/s"},
	{"max_abs_drift", "quanta"},
	{"ideal_gap", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer is every traced metric, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"core.apply_us", "us"},
	{"core.step_us_p50", "us"},
	{"core.step_us_p99", "us"},
	{"core.oi_events", "count"},
	{"core.lj_events", "count"},
	{"core.enactments", "count"},
	{"core.alloc_b_per_slot", "B"},
	{"serve.commands_us_p50", "us"},
	{"serve.commands_us_p99", "us"},
	{"serve.advance_us_p50", "us"},
	{"serve.advance_us_p99", "us"},
	{"serve.backpressure_429", "count"},
	{"net.overhead_us_p50", "us"},
	{"cluster.write_us_p50", "us"},
	{"cluster.write_us_p99", "us"},
	{"cluster.write_self_us_p50", "us"},
	{"cluster.repl_us_p50", "us"},
	{"cluster.repl_us_p99", "us"},
	{"cluster.repl_share", "ratio"},
	{"cluster.pushes_per_write", "ratio"},
	{"cluster.repl_kb_per_push", "KB"},
	{"cluster.repl_refusals", "count"},
	{"cluster.bg_pushes", "count"},
	{"cluster.advance_us_p99", "us"},
	{"cluster.read_us_p99", "us"},
	{"cluster.redirects", "count"},
	{"proc.cpu_frac", "ratio"},
	{"proc.alloc_b_per_cmd", "B"},
	{"gen.late_us_p99", "us"},
	{"latency.ack_p50_ms", "ms"},
	{"latency.ack_p90_ms", "ms"},
	{"latency.ack_p99_ms", "ms"},
	{"latency.read_p50_ms", "ms"},
	{"latency.read_p90_ms", "ms"},
	{"latency.read_p99_ms", "ms"},
	{"fail_frac", "ratio"},
}

// overLimitMs stands in for a latency quantile that fell among failed
// operations (+Inf): above every limit, yet a JSON number.
const overLimitMs = 3.6e6

// passResult is one measured pass of a workload.
type passResult struct {
	e2e                      map[string]float64 // latency, rate and accuracy metrics
	layer                    map[string]float64 // per-layer metrics (traced pass)
	setups                   []float64          // seconds per set-up
	peakRSS                  float64
	attempted                int64
	failed                   int64
	acks                     int64
	reads                    int64
	lateP99us                float64
	scenarios                int
	windows                  []window // closed loop rate samples
	keptWindows              int      // windows the sustained rate is read from
	closedP50ms, closedP99ms float64
	closedCPU                float64            // closed loop: process CPU time / (wall time × nproc)
	stealFrac                float64            // share of the machine's CPU time the host stole
	latency                  map[string]float64 // ack and read quantiles, ms
	errs                     []error
	self                     []selfRow
	selfTitle                string
	selfPerOp                int
	spans                    *recorder
}

func (r *passResult) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

// endToEndValues completes a pass's metrics with set-up time and memory.
// Set-up time is the lower quartile of the pass's set-ups: a set-up is
// milliseconds, so a host stall doubles a few of them, and the lower
// quartile leaves those out where the median would follow them.
func (r *passResult) endToEndValues() map[string]float64 {
	m := map[string]float64{"setup_s": quantile(r.setups, 0.25), "peak_rss_mb": r.peakRSS}
	for k, v := range r.e2e {
		if math.IsInf(v, 1) {
			v = overLimitMs
		}
		m[k] = v
	}
	return m
}

// latencies are the ack and read quantiles of a pass, in ms: not gated,
// since the shared host does not hold them steady (see README.md).
func latencies(ack, read *Hist) map[string]float64 {
	m := map[string]float64{}
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		m["latency.ack_"+q.name+"_ms"] = math.Min(ack.Quantile(q.q)/1e6, overLimitMs)
		m["latency.read_"+q.name+"_ms"] = math.Min(read.Quantile(q.q)/1e6, overLimitMs)
	}
	return m
}

func wrapErr(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs, interpolated between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// cpuTime is the process's user plus system CPU seconds so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// ticksPerSec is USER_HZ, 100 on Linux: a tick is 10 ms of one CPU.
const ticksPerSec = 100

// stealTicks is the host's total CPU steal so far, in clock ticks
// (/proc/stat): time the hypervisor ran something else while a vCPU of
// the machine had work. On a shared VM it explains a noisy run.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64) // a missing field reads as no steal
	return n
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

var workloads = map[string]func() any{
	"whisper-engine": func() any { return defaultWhisper() },
	"node-reweight":  func() any { return defaultNode() },
	"cluster-rw":     func() any { return defaultCluster() },
}

func runPass(params any, seed uint64, seconds float64, traced bool) (*passResult, error) {
	clk := clock{epoch: time.Now()}
	if wc, ok := params.(whisperConfig); ok {
		var rec *recorder
		if traced {
			// Apply and Step spans of the first slots; later ones are
			// counted as dropped (the metrics come from every slot).
			rec = newRecorder(1 << 18)
		}
		res, err := runWhisper(wc, seed, seconds, rec, clk)
		if err == nil {
			res.spans = rec
		}
		return res, err
	}
	return runHTTP(params.(httpConfig), seed, seconds, traced, clk)
}

func main() {
	workload := flag.String("workload", "", "whisper-engine, node-reweight or cluster-rw")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long one pass measures")
	trace := flag.Int("trace", 0, "1: an untraced pass, then a traced pass printing per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload whisper-engine|node-reweight|cluster-rw --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	params := mk()
	printJSONLine("provenance", provenance(*workload, *seed, *seconds, *trace))
	printJSONLine("params", params)

	s0, w0 := stealTicks(), time.Now()
	base, err := runPass(params, *seed, *seconds, false)
	if err != nil {
		logf("%s: %v", *workload, err)
		os.Exit(1)
	}
	base.stealFrac = float64(stealTicks()-s0) / ticksPerSec / (time.Since(w0).Seconds() * float64(runtime.NumCPU()))
	report(*workload, "untraced", base)
	out, res := base.endToEndValues(), base
	if *trace == 1 {
		traced, err := runPass(params, *seed, *seconds, true)
		if err != nil {
			logf("%s traced: %v", *workload, err)
			os.Exit(1)
		}
		report(*workload, "traced", traced)
		tv := traced.endToEndValues()
		fmt.Println("# tracing overhead (traced pass minus untraced pass of this run):")
		for _, m := range endToEnd {
			d := tv[m.name] - out[m.name]
			fmt.Printf("#   %-14s %14.6g %s (%+.1f%%)\n", m.name, d, m.unit, 100*d/math.Max(math.Abs(out[m.name]), 1e-12))
		}
		if traced.self != nil {
			printSelf(os.Stdout, traced.selfTitle, traced.self, traced.selfPerOp)
		}
		if traced.spans != nil {
			if path, err := writeSpans(*workload, *seed, traced.spans); err != nil {
				logf("writing spans: %v", err)
			} else {
				fmt.Printf("# spans: %d kept, %d dropped, written to %s\n",
					len(traced.spans.kept()), traced.spans.dropped.Load(), path)
			}
		}
		out = map[string]float64{}
		for _, m := range perLayer {
			out[m.name] = traced.layer[m.name] // absent: the layer is not on this workload's path
		}
		out["fail_frac"] = float64(traced.failed) / float64(max(traced.attempted, 1))
		for k, v := range base.latency { // tracing would perturb them
			out[k] = v
		}
		res = traced
		res.errs = append(res.errs, base.errs...)
		res.attempted += base.attempted
		res.failed += base.failed
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range defs {
		v := out[m.name]
		if math.IsInf(v, 1) {
			v = overLimitMs // a quantile that fell among failed operations
		}
		metrics[m.name] = value{v, m.unit}
	}
	for _, e := range res.errs {
		logf("check failed: %v", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.errs) == 0, res.attempted, res.failed, metrics})
	if err != nil {
		logf("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(res.errs) > 0 {
		os.Exit(1)
	}
}

// printJSONLine prints one "# name {json}" detail line.
func printJSONLine(name string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(strconv.Quote(err.Error()))
	}
	fmt.Printf("# %s %s\n", name, b)
}

// report prints one pass's details as "#" lines.
func report(workload, pass string, r *passResult) {
	d := map[string]any{
		"pass": pass, "acks": r.acks, "reads": r.reads, "attempted": r.attempted,
		"failed": r.failed, "setups_s": r.setups, "checks_failed": len(r.errs),
		"end_to_end": r.endToEndValues(), "latency": r.latency,
	}
	if pass == "untraced" {
		d["host_steal_frac"] = r.stealFrac
	}
	if workload == "whisper-engine" {
		d["scenarios"] = r.scenarios
	} else {
		d["gen_late_us_p99"] = r.lateP99us
		d["closed_loop"] = map[string]any{"windows": r.windows, "kept": r.keptWindows,
			"ack_p50_ms": r.closedP50ms, "ack_p99_ms": r.closedP99ms, "cpu_frac": r.closedCPU}
	}
	printJSONLine("pass", d)
}

func writeSpans(workload string, seed uint64, rec *recorder) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	return path, rec.write(path)
}

// provenance records where and on what a result was measured.
func provenance(workload string, seed uint64, seconds float64, trace int) map[string]any {
	return map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"cpu_model": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "git_commit": gitCommit(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory, if there is one.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unresolved " + ref
}

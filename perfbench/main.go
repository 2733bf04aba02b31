// Command perfbench is the repository's benchmark: it drives seeded,
// fixed request lists through an in-process serve.Server and reports
// end-to-end metrics (untraced runs) or per-layer metrics (traced
// runs), checking every answer against a precomputed optimum.
//
//	go run . --workload shape-churn --seed 1 --seconds 50 --trace 0
//
// --workload all runs every workload, each in its own process. See
// README.md for the workloads and what each metric should move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"hunipu"
	"hunipu/internal/serve"
)

// runDeadline bounds one workload process: its solves are cancelled
// and the run fails rather than overrun.
const runDeadline = 170 * time.Second

// runConfig is one workload run.
type runConfig struct {
	w         workload
	seed      int64
	seconds   int
	traced    bool
	setupReps int    // setups per run; setup_s is their median
	rounds    int    // barrier-separated rounds per pass
	traceDir  string // where a traced run writes its spans
}

// result is the last line of the output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: shape-churn, sharded-guarded, or all")
	seed := fs.Int64("seed", 1, "seed of the request lists")
	seconds := fs.Int("seconds", 50, "run length; sets the fixed number of measured requests")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --seconds ≥ 1 and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, setupReps: 5, rounds: 10, traceDir: filepath.Join(".perfbench_build", "traces")}
	res, err := runWorkload(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload generates the inputs, sets up and warms the server
// (several times in an untraced run, for setup_s), and measures one
// pass over the measured list, traced or not. Lines before the result
// describe the run, including a digest of every modeled count, which
// must match between the traced and untraced runs of a seed.
func runWorkload(ctx context.Context, cfg runConfig, out io.Writer) (*result, error) {
	logf := func(format string, a ...any) { fmt.Fprintf(out, "perfbench: "+format+"\n", a...) }
	calibBefore := calibrate()
	warm, meas, err := cfg.w.generate(cfg.seed, cfg.w.measured(cfg.seconds))
	if err != nil {
		return nil, err
	}
	logf("workload=%s seed=%d go=%s nproc=%d gomaxprocs=%d traced=%t", cfg.w.name, cfg.seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.traced)
	reps := cfg.setupReps
	if cfg.traced {
		reps = 1
	}
	logf("requests=%d warmup=%d clients=%d rounds=%d setup_reps=%d", len(meas), len(warm), clients, cfg.rounds, reps)

	var setups []time.Duration
	var srv *serve.Server
	for rep := 0; rep < reps; rep++ {
		if srv != nil {
			stop(srv)
			hunipu.ClearProgramCache()
		}
		runtime.GC()
		var d time.Duration
		if srv, d, err = setup(ctx, cfg.w, warm); err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	p := measure(ctx, srv, meas, cfg.rounds, cfg.traced)
	stop(srv)
	t, errs := tallyPass(meas, p)
	e2e, beyond, err := endToEnd(p, t, setups)
	if err != nil {
		return nil, err
	}
	calib := (calibBefore + calibrate()) / 2
	res := &result{Attempted: len(meas), Failed: t.failed}
	logf("setup_s reps=%v", setups)
	logf("round solves_per_s=%.4g", roundRates(p, t))
	logf("latency samples=%d beyond_p90=%d", len(p.records), beyond)
	logf("failed_share %g (%d of %d)", ratio(float64(t.failed), float64(len(meas))), t.failed, len(meas))
	logf("modeled_us_per_solve=%.6f modeled_digest=%s", e2e["modeled_us_per_solve"], modeledDigest(p))
	logf("host.calib_ms %.4f", ms(calib))
	if !cfg.traced {
		res.Metrics = fill(endToEndSpecs, e2e)
		return finish(res, errs, out), nil
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.w.name, cfg.seed))
	if err := writeTrace(path, p.spans); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	logf("trace requests=%d file=%s", len(p.spans), path)
	res.Metrics = fill(perLayerSpecs, perLayer(p, t, calib, e2e["solves_per_s"]))
	return finish(res, errs, out), nil
}

// finish reports wrong answers, prints every metric with its unit, and
// settles correct.
func finish(res *result, errs []error, out io.Writer) *result {
	for _, err := range errs {
		fmt.Fprintf(out, "perfbench: FAIL %v\n", err)
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "perfbench: %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	return res
}

// printResult writes the result line. A latency that failed requests
// made infinite is written as the largest float, which JSON can carry.
func printResult(out io.Writer, res *result) error {
	for n, m := range res.Metrics {
		if math.IsInf(m.Value, 1) || math.IsNaN(m.Value) {
			m.Value = math.MaxFloat64
			res.Metrics[n] = m
		}
	}
	buf, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", buf)
	return err
}

// runAll runs every workload twice, untraced and then traced, each run
// in its own process with the other flags passed on. It prints each
// child's output, fails when a workload's two runs disagree on any
// modeled count, reports the tracing overhead, and ends with a combined
// result whose metric names are prefixed by workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	total := result{Correct: true, Metrics: metrics{}}
	for _, w := range workloads {
		var digests [2]string
		var rates [2]float64
		for trace := 0; trace < 2; trace++ {
			// The last of a repeated flag wins, so these override args.
			child := slices.Concat(args, []string{"--workload", w.name, "--trace", fmt.Sprint(trace)})
			res, digest, err := runChild(exe, child, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s --trace %d: %v\n", w.name, trace, err)
				total.Correct = false
				continue
			}
			digests[trace] = digest
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for n, m := range res.Metrics {
				total.Metrics[w.name+"."+n] = m
			}
		}
		rates[0] = total.Metrics[w.name+".solves_per_s"].Value
		rates[1] = total.Metrics[w.name+".trace.solves_per_s"].Value
		if digests[0] != digests[1] {
			fmt.Fprintf(stdout, "perfbench: FAIL %s: modeled digest %s untraced, %s traced\n", w.name, digests[0], digests[1])
			total.Correct = false
		}
		fmt.Fprintf(stdout, "perfbench: %s tracing overhead: traced solves_per_s %.4g against untraced %.4g (ratio %.4f)\n", w.name, rates[1], rates[0], ratio(rates[1], rates[0]))
	}
	if err := printResult(stdout, &total); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !total.Correct {
		return 1
	}
	return 0
}

// runChild runs the benchmark binary with args, copying its output,
// and returns its result line and modeled digest.
func runChild(exe string, args []string, stdout, stderr io.Writer) (*result, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline+10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	var last, digest string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(stdout, last)
		if _, d, ok := strings.Cut(last, "modeled_digest="); ok {
			digest = d
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return nil, "", err
	}
	if scanErr != nil {
		return nil, "", scanErr
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, "", fmt.Errorf("result line: %w", err)
	}
	return &res, digest, nil
}

// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time and prints every metric BENCHMARK.json names,
// with its unit, as the last line of standard output:
//
//	bash perfbench/run.sh --workload crash-repair --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, timed with tracing
// off. With --trace 1 it runs traced passes instead, in which every job
// also runs as a sequence of public calls into the layers (lang, interp,
// pmcheck, alias, core, crashsim, schedule, static, optimize, cli, server)
// under the benchmark's own spans, and reports the per-layer metrics.
// Every job's output is checked against an answer the tool under test
// did not produce; a wrong answer counts as a failed job.
//
// Run it from the repository root: it reads BENCHMARK.json there and
// writes its result file, with the host envelope and (traced) every span,
// under .bench_build/results/.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// envelope is the host and input context every result carries.
type envelope struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, when the
	// build saw a repository; SourceDigest identifies the sources either
	// way (SHA-256 over go.mod and every file under cmd/ and internal/).
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

func hostEnvelope(workload string, seed int64, seconds int, trace bool) envelope {
	env := envelope{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	env.SourceDigest = sourceDigest()
	return env
}

func sourceDigest() string {
	h := sha256.New()
	var paths []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	for _, p := range append([]string{"go.mod"}, paths...) {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, p+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// attach gives each measured value its unit from the spec, and insists
// the two name exactly the same metrics.
func attach(specs []metricSpec, m map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, s := range specs {
		v, ok := m[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", s.Name)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for k := range m {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("measured metric %s is not in BENCHMARK.json", k)
		}
	}
	return out, nil
}

func main() {
	if err := run(); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: crash-repair, redis-ycsb or daemon-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 runs traced passes and reports the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	d := time.Duration(*seconds) * time.Second
	w, err := newWorkload(*name, d)
	if err != nil {
		return err
	}
	env := hostEnvelope(*name, *seed, *seconds, *traceFlag == 1)

	// Each set-up is timed like a job, in CPU time, with a gauge step
	// before it, so that setup_s is scaled to the reference host too.
	g := newGauge(gaugeSteps(d))
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if td, ok := w.(teardowner); ok {
			if err := td.teardown(); err != nil {
				return err
			}
		}
		g.step(0)
		runtime.GC()
		p0 := snapProc()
		if err := w.setup(*seed); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuSince(p0)/1e3)
	}

	m := map[string]float64{}
	doc := map[string]any{"envelope": env}
	var res result
	if *traceFlag == 0 {
		res.Attempted, res.Failed, err = w.measure(*seed, d, m, g)
		if err != nil {
			return err
		}
		m["setup_s"] = median(setups)
		doc["raw_metrics"] = maps.Clone(m)
		doc["calibration"] = map[string]any{"ref_ms": refCalibMS, "cpu_ms": g.samples, "scale": g.scale()}
		normalize(m, g.scale())
		res.Metrics, err = attach(spec.EndToEnd, m)
	} else {
		tr := newTracer()
		passes, extra, err := w.traced(tr, d)
		if err != nil {
			return err
		}
		layers, drift := layerReport(passes)
		for k, v := range extra {
			layers[k] = v
		}
		for _, p := range passes {
			res.Attempted += p.attempted
			res.Failed += p.failed
		}
		printLayers(os.Stdout, layers)
		printShares(os.Stdout, passes)
		printDrift(os.Stdout, passes, drift)
		doc["drifting_counts"] = drift
		doc["spans"] = tr.spans
		res.Metrics, err = attach(spec.PerLayer, layers)
	}
	if err != nil {
		return err
	}
	res.Correct = res.Failed == 0
	doc["result"] = res
	doc["setup_cpu_s"] = setups
	if err := writeResult(env, doc); err != nil {
		return err
	}
	fmt.Printf("host: %d cpu, GOMAXPROCS %d, %s, commit %s, source %.12s, workload %s, seed %d\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, env.SourceDigest, env.Workload, env.Seed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printLayers writes the per-layer table, one metric a line.
func printLayers(w io.Writer, layers map[string]float64) {
	var names []string
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "per-layer (times and counts per job)")
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %.6g\n", k, layers[k])
	}
}

func writeResult(env envelope, doc map[string]any) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", env.Workload, env.Seed, env.Trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

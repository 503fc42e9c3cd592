package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// speedProbe is a small compute-bound kernel (a 96×96 matrix product in
// plain loops, ≈ 1 ms) run on every worker thread at once, between the
// rounds of the timed section. The box this benchmark was written on
// leaves its full clock speed for seconds to minutes at a time, slowing
// compute-bound code by up to 1.9× and a run's median with it; the
// probe tells which rounds were measured at full speed, and only those
// are reported.
type speedProbe struct {
	threads int
	mats    [][3][]float64
}

const probeN = 96

func newSpeedProbe(threads int) *speedProbe {
	p := &speedProbe{threads: threads}
	for t := 0; t < threads; t++ {
		var m [3][]float64
		for k := range m {
			m[k] = make([]float64, probeN*probeN)
			for i := range m[k] {
				m[k][i] = float64((i + k) % 7)
			}
		}
		p.mats = append(p.mats, m)
	}
	return p
}

// once runs the kernel on all threads and returns the slowest's time.
func (p *speedProbe) once() time.Duration {
	var wg sync.WaitGroup
	times := make([]time.Duration, p.threads)
	for t := 0; t < p.threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			a, b, c := p.mats[t][0], p.mats[t][1], p.mats[t][2]
			t0 := time.Now()
			for i := 0; i < probeN; i++ {
				for k := 0; k < probeN; k++ {
					aik := a[i*probeN+k]
					for j := 0; j < probeN; j++ {
						c[i*probeN+j] = c[i*probeN+j]*0.5 + aik*b[k*probeN+j]
					}
				}
			}
			times[t] = time.Since(t0)
		}(t)
	}
	wg.Wait()
	worst := times[0]
	for _, d := range times {
		if d > worst {
			worst = d
		}
	}
	return worst
}

const (
	// probeSlack is how much slower than full speed a probe may be for the
	// machine to count as quiet: the full-speed cluster spans ±10 %, the
	// disturbed ones start at 1.3×.
	probeSlack = 1.25
	// minQuietSamples is how many executions in quiet rounds every
	// statement must have before the timed section ends. It waits for them
	// up to maxStretch times its length past its end, as long as the runs
	// of this checkout together have waited less than maxExtraSeconds (the
	// driver's 92 runs have about 500 s to spare).
	minQuietSamples = 30
	maxStretch      = 0.75
	maxExtraSeconds = 300
)

// fullSpeed is the lower quartile of a run's probes. Undisturbed probes
// scatter by ±10 % around 1 ms with a tail of lucky ones 20 % faster;
// the quartile sits in the body of that cluster, repeats from run to run
// within 3 %, and is right as long as a quarter of the run was
// undisturbed.
func fullSpeed(probes []float64) float64 { return quantile(probes, 0.25) }

// quietRounds marks the rounds whose bracketing probes (probes[i] before,
// probes[i+1] after) both ran at full speed: the run's own, or ref, the
// fastest an earlier run in this checkout saw, if that is faster (0: no
// earlier run). Without ref a run that is disturbed from start to end
// passes for quiet.
func quietRounds(probes []float64, ref float64) []bool {
	best := fullSpeed(probes)
	if ref > 0 && ref < best {
		best = ref
	}
	quiet := make([]bool, len(probes)-1)
	for i := range quiet {
		quiet[i] = probes[i] <= probeSlack*best && probes[i+1] <= probeSlack*best
	}
	return quiet
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// probeState is what the runs in one checkout hand on to each other, in
// a file next to the build: the full-speed probe time and the seconds
// timed sections have already run over. Disturbances here last up to a
// minute, longer than a run, so one run alone cannot tell.
type probeState struct {
	BestMs float64 `json:"best_ms"` // fastest fullSpeed of any run so far; 0: none yet
	ExtraS float64 `json:"extra_s"` // seconds timed sections ran past --seconds, all runs
}

func probeStatePath(cfg config) string { return filepath.Join(cfg.tmpRoot, "probe_state.json") }

// loadProbeState returns the zero state when there is no readable file.
func loadProbeState(cfg config) (st probeState) {
	if data, err := os.ReadFile(probeStatePath(cfg)); err == nil && json.Unmarshal(data, &st) != nil {
		st = probeState{}
	}
	return st
}

func (st probeState) save(cfg config) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return err
	}
	return os.WriteFile(probeStatePath(cfg), data, 0o644)
}

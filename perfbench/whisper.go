package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/model"
	"repro/internal/whisper"
)

// whisperConfig scales the paper's Whisper tracker (Sec. 5) up to tens of
// speakers and a long horizon.
type whisperConfig struct {
	Speakers  int     `json:"speakers"`
	M         int     `json:"m"`
	Horizon   int64   `json:"horizon"`
	Speed     float64 `json:"speed_m_s"`
	Radius    float64 `json:"radius_m"`
	Threshold string  `json:"oi_threshold"` // rules O/I for |Δw| >= threshold, leave/join below
	Accuracy  int     `json:"accuracy_scenarios"`
	ReadEvery int     `json:"read_every_slots"`
}

// defaultWhisper keeps the paper's ratio of 12 tasks to 4 processors
// (96 tasks on 32) and its 2.9 m/s hybrid-ablation speed.
func defaultWhisper() whisperConfig {
	return whisperConfig{
		Speakers: 24, M: 32, Horizon: 20000, Speed: 2.9, Radius: 0.25,
		Threshold: "1/50", Accuracy: 8, ReadEvery: 100,
	}
}

// scenario is one Whisper run's inputs, generated before timing starts.
type scenario struct {
	sys  model.System
	cmds []core.Command // every reweight, in slot order
	off  []int32        // cmds[off[t]:off[t+1]] apply at slot t
}

func genScenario(wc whisperConfig, seed uint64) (*scenario, error) {
	p := whisper.DefaultParams()
	p.Speakers, p.Horizon, p.Speed, p.Radius, p.Seed = wc.Speakers, wc.Horizon, wc.Speed, wc.Radius, seed
	sim, err := whisper.NewSimulation(p)
	if err != nil {
		return nil, err
	}
	sc := &scenario{sys: model.System{M: wc.M, Tasks: sim.TaskSpecs()}, off: make([]int32, 0, wc.Horizon+1)}
	for t := model.Time(0); t < model.Time(wc.Horizon); t++ {
		sc.off = append(sc.off, int32(len(sc.cmds)))
		for _, r := range sim.StepRequests(t) {
			sc.cmds = append(sc.cmds, core.Command{At: t, Op: core.OpReweight, Task: r.Task, Weight: r.Weight})
		}
	}
	sc.off = append(sc.off, int32(len(sc.cmds)))
	return sc, nil
}

// whisperCfg is the engine configuration; counts, when non-nil, tallies
// the hybrid's choices (the efficiency-vs-accuracy knob).
func whisperCfg(wc whisperConfig, oi, lj *int64, checkInvariants bool) core.Config {
	th := frac.MustParse(wc.Threshold)
	return core.Config{
		M: wc.M, Policy: core.PolicyHybrid, Police: true, CheckInvariants: checkInvariants,
		UseOI: func(_ string, from, to frac.Rat) bool {
			ok := !to.Sub(from).Abs().Less(th)
			if oi != nil {
				if ok {
					*oi++
				} else {
					*lj++
				}
			}
			return ok
		},
	}
}

// checkWhisper replays a scenario's recorded log on a fresh engine with
// invariant checking on: the replay must reach the live engine's digest
// with no deadline miss and no invariant violation.
func checkWhisper(wc whisperConfig, sys model.System, log []core.Command, digest uint64) error {
	eng, err := core.Replay(whisperCfg(wc, nil, nil, true), sys, log, model.Time(wc.Horizon))
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if v := eng.Violations(); len(v) > 0 {
		return fmt.Errorf("%d invariant violations, first: %s", len(v), v[0])
	}
	if m := eng.Misses(); len(m) > 0 {
		return fmt.Errorf("%d deadline misses", len(m))
	}
	if got := eng.StateDigest(); got != digest {
		return fmt.Errorf("replayed digest %016x != live digest %016x", got, digest)
	}
	return nil
}

// statusSink keeps the compiler from discarding status reads.
var statusSink float64

// readStatus is the engine-side status read: what GET /v1/shards/{s}
// computes, the paper's live drift and lag over every task.
func readStatus(eng *core.Scheduler) {
	var drift, lag float64
	for _, m := range eng.AllMetrics() {
		drift = max(drift, m.Drift.Abs().Float64())
		lag += m.Lag.Abs().Float64()
	}
	statusSink += drift + lag
}

// rateWindow is the slot count of one throughput window; it divides the
// horizon.
const rateWindow = 1000

// runWhisper runs scenarios back to back until the time is up (and at
// least wc.Accuracy of them), each set up, run slot by slot in one
// goroutine, and checked.
func runWhisper(wc whisperConfig, seed uint64, seconds float64, rec *recorder, clk clock) (*passResult, error) {
	res := &passResult{}
	var slot, read, step Hist
	var applyNs, stepNs, engineNs, cmds, slots, allocB, applies int64
	// Throughput per window of rateWindow slots: a burst of stolen host
	// CPU slows a few windows, where it would drag a whole-run mean.
	var rates []float64
	var winNs int64
	var oi, lj, enact int64
	var drift, gap float64
	deadline := clk.now() + int64(seconds*1e9)
	u0 := cpuTime()
	w0 := clk.now()
	for i := 0; i < wc.Accuracy || clk.now() < deadline; i++ {
		// The scenario is input, generated from the seed before timing
		// starts, and the log is the benchmark's record of what was
		// applied; set-up is building the engine over the tasks.
		sc, err := genScenario(wc, seed*1000+uint64(i))
		if err != nil {
			return nil, err
		}
		log := make([]core.Command, 0, len(sc.cmds))
		runtime.GC()     // each scenario starts from the same heap
		t0 := time.Now() //lint:allow detflow the clock times set-up and bounds how many scenarios run; each scenario's commands come from the seed alone
		var soi, slj int64
		eng, err := core.New(whisperCfg(wc, &soi, &slj, false), sc.sys)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for t := int64(0); t < wc.Horizon; t++ {
			s0 := clk.now()
			for _, c := range sc.cmds[sc.off[t]:sc.off[t+1]] {
				var a0 int64
				if rec != nil {
					a0 = clk.now()
				}
				err := eng.Apply(c)
				if rec != nil {
					a1 := clk.now()
					rec.add(span{start: a0, end: a1, id: -1, kind: spanApply, shard: -1})
					applyNs += a1 - a0
				}
				applies++
				if err != nil {
					res.failed++
					if res.failed <= 3 {
						logf("scenario %d slot %d: apply %s: %v", i, t, c, err)
					}
					continue
				}
				log = append(log, c)
			}
			var p0 int64
			if rec != nil {
				p0 = clk.now()
			}
			eng.Step()
			s1 := clk.now()
			if rec != nil {
				rec.add(span{start: p0, end: s1, id: -1, kind: spanStep, shard: -1})
				step.Record(time.Duration(s1 - p0))
				stepNs += s1 - p0
			}
			slot.Record(time.Duration(s1 - s0))
			engineNs += s1 - s0
			winNs += s1 - s0
			if (t+1)%rateWindow == 0 {
				n := sc.off[t+1] - sc.off[t+1-rateWindow]
				rates = append(rates, float64(n)/(float64(winNs)/1e9))
				winNs = 0
			}
			if (t+1)%int64(wc.ReadEvery) == 0 {
				r0 := clk.now()
				readStatus(eng)
				read.Record(time.Duration(clk.now() - r0))
			}
		}
		runtime.ReadMemStats(&ms1)
		allocB += int64(ms1.TotalAlloc - ms0.TotalAlloc)
		slots += wc.Horizon
		cmds += int64(len(sc.cmds))

		if i < wc.Accuracy {
			var acc accuracy
			for _, m := range eng.AllMetrics() {
				acc.driftSum = max(acc.driftSum, m.Drift.Abs().Float64())
				acc.missSum += math.Abs(float64(m.Scheduled) - m.CumPS.Float64())
				acc.idealSum += m.CumPS.Float64()
				enact += m.Enactments
			}
			drift += acc.driftSum / float64(wc.Accuracy)
			gap += acc.idealGap() / float64(wc.Accuracy)
			oi += soi
			lj += slj
		}
		if n := len(eng.Misses()); n > 0 {
			res.check(fmt.Errorf("scenario %d: %d deadline misses", i, n))
		}
		res.check(wrapErr(fmt.Sprintf("scenario %d", i), checkWhisper(wc, sc.sys, log, eng.StateDigest())))
		res.scenarios++
	}
	wall := clk.now() - w0
	res.peakRSS = peakRSSMB()
	if res.failed > 0 {
		res.check(fmt.Errorf("%d Apply calls failed", res.failed))
	}
	res.attempted = applies + slots
	res.e2e = map[string]float64{
		"sustain_cmd_s": median(rates),
		"max_abs_drift": drift,
		"ideal_gap":     gap,
	}
	res.acks, res.reads = int64(slot.Count()), int64(read.Count())
	res.latency = latencies(&slot, &read)
	res.layer = map[string]float64{
		"core.step_us_p50":      usQ(&step, 0.5),
		"core.step_us_p99":      usQ(&step, 0.99),
		"core.oi_events":        float64(oi),
		"core.lj_events":        float64(lj),
		"core.enactments":       float64(enact),
		"core.alloc_b_per_slot": float64(allocB) / float64(slots),
		"proc.cpu_frac":         (cpuTime() - u0) / (float64(wall) / 1e9 * float64(runtime.NumCPU())),
		"proc.alloc_b_per_cmd":  float64(allocB) / float64(max(cmds, 1)),
	}
	if applies > 0 && rec != nil {
		res.layer["core.apply_us"] = float64(applyNs) / float64(applies) / 1e3
	}
	if rec != nil {
		res.self = []selfRow{
			{"engine Apply (reweight rules O/I or L/J, policing)", int(applies), applyNs},
			{"engine Step (PD² slot)", int(slots), stepNs},
			{"benchmark loop around the engine", int(slots), engineNs - applyNs - stepNs},
		}
		res.selfTitle = "whisper-engine, per slot"
		res.selfPerOp = int(slots)
	}
	return res, nil
}

package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"syscall"
	"time"

	"erminer/internal/core"
	"erminer/internal/detrand"
	"erminer/internal/enuminer"
	"erminer/internal/mdp"
	"erminer/internal/metrics"
	"erminer/internal/repair"
	"erminer/internal/rl"
	"erminer/internal/rlminer"
	"erminer/internal/rulesio"
)

// minF1 is the weakest median rule quality a mining run accepts: the
// mined rules' repairs score ~0.63 weighted F1 on this problem, and a
// median below 0.60 means the miner is broken, not slow. Single RLMiner
// seeds can land lower (one in ten scored 0.50 in the reference runs),
// which is why the check is on the median.
const minF1 = 0.60

// miningRun drives one mining workload in this process. The problem is
// loaded from the generated CSVs and never shares index caches between
// mines, so every mine starts cold as a user's run would.
type miningRun struct {
	env *runEnv
	w   workload
	in  *inputs
}

func newMiningRun(env *runEnv, w workload) (*miningRun, error) {
	in, err := makeInputs(env.dir, env.seed, 0)
	if err != nil {
		return nil, err
	}
	return &miningRun{env: env, w: w, in: in}, nil
}

// mines is how many mines a run of the configured length makes.
func (m *miningRun) mines() int {
	if m.w.kind == kindMineRL {
		return max(2, int(math.Round(m.env.seconds/rlMineNominal.Seconds())))
	}
	return max(3, int(math.Round(m.env.seconds/enumNominal.Seconds())))
}

// rlSeed is the RLMiner seed of mine i. Seeds repeat every three
// mines, so a run checks that one seed always exports the same rules.
func (m *miningRun) rlSeed(i int) int64 { return m.env.seed*1000 + int64(i%3) }

// setupOnce is what a mining user waits for before the first step: the
// CSV load, plus building the MDP environment for RLMiner.
func (m *miningRun) setupOnce() (*core.Problem, error) {
	p, err := m.in.loadProblem()
	if err != nil {
		return nil, err
	}
	if m.w.kind == kindMineRL {
		if _, err := mdp.NewEnv(p, mdp.Config{}); err != nil {
			return nil, fmt.Errorf("building the MDP environment: %w", err)
		}
	}
	return p, nil
}

func (m *miningRun) mine(p *core.Problem, i int) (*core.ResultSet, error) {
	if m.w.kind == kindMineRL {
		return rlminer.New(rlminer.Config{TrainSteps: rlSteps, Seed: m.rlSeed(i)}).Mine(p)
	}
	return enuminer.NewH3(enuminer.Config{}).Mine(p)
}

// processCPU is this process's user+system CPU time.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading CPU time: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// f1 scores a rule set's repairs of the whole input against the truth.
func (m *miningRun) f1(p *core.Problem, rules []core.MinedRule) float64 {
	res := repair.Apply(p.NewEvaluator(), ruleList(rules))
	var ct codeTruth
	pred := make([]int32, len(res.Pred))
	truth := make([]int32, len(res.Pred))
	for row, c := range res.Pred {
		pred[row] = ct.code(p.Input.Dict(p.Y).Value(c))
		truth[row] = ct.code(m.in.truth[row])
	}
	return metrics.Weighted(pred, truth).F1
}

// minesPerSegment is how many mines run between two host-speed
// calibrations: every RLMiner mine, and EnuMiner-H3 mines in groups of
// about a second.
func (m *miningRun) minesPerSegment() int {
	if m.w.kind == kindMineRL {
		return 1
	}
	return int(time.Second / enumNominal)
}

// measure runs the untraced mining workload.
func (m *miningRun) measure() (*result, error) {
	res := newResult(m.w.name, m.env.seed)
	cal := newCalibrator()
	reps := m.env.setupReps()
	setups := make([]float64, reps)
	var p *core.Problem
	speeds, err := cal.segments(reps, func(k int) error {
		start := time.Now()
		var err error
		p, err = m.setupOnce()
		setups[k] = time.Since(start).Seconds()
		return err
	})
	if err != nil {
		return nil, err
	}
	for k := range setups {
		setups[k] *= speeds[k]
	}
	res.set("setup_s", median(setups), len(setups))

	type mineOut struct {
		seg           int
		wall, cpu, f1 float64
	}
	n, per := m.mines(), m.minesPerSegment()
	var outs []mineOut
	var rss []float64
	exports := make(map[int][]byte)
	f1Of := make(map[string]float64)
	speeds, err = cal.segments((n+per-1)/per, func(k int) error {
		// Start each segment from a scavenged heap with a fresh
		// high-water mark, so its peak is its own mines'.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		for i := k * per; i < min(n, (k+1)*per); i++ {
			cpu0, err := processCPU()
			if err != nil {
				return err
			}
			start := time.Now()
			rs, err := m.mine(p, i)
			wall := time.Since(start)
			res.attempted++
			if err != nil {
				res.failed++
				res.problem("mine %d: %v", i, err)
				continue
			}
			cpu1, err := processCPU()
			if err != nil {
				return err
			}
			data, err := rulesio.Export(p, rs.Rules)
			if err != nil {
				return fmt.Errorf("exporting mined rules: %w", err)
			}
			exports[i] = data
			if j := m.sameAs(i); j >= 0 && exports[j] != nil && !bytes.Equal(data, exports[j]) {
				res.problem("mine %d exported different rules than mine %d with the same seed", i, j)
			}
			f, ok := f1Of[string(data)]
			if !ok {
				f = m.f1(p, rs.Rules)
				f1Of[string(data)] = f
			}
			outs = append(outs, mineOut{seg: k, wall: ms(wall), cpu: ms(cpu1 - cpu0), f1: f})
		}
		peak, err := peakRSS(os.Getpid())
		rss = append(rss, peak)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("no mine succeeded")
	}
	var lat, f1s []float64
	var wall, cpu float64
	for _, o := range outs {
		f := speeds[o.seg]
		lat = append(lat, o.wall*f)
		wall += o.wall * f
		cpu += o.cpu * f
		f1s = append(f1s, o.f1)
	}
	k := len(outs)
	res.set("latency_p50_ms", percentile(lat, 50), k)
	res.set("latency_tail_ms", percentile(lat, tailPercentile(k)), k)
	res.set("throughput_per_s", float64(k)/(wall/1000), k)
	res.set("cpu_ms_per_op", cpu/float64(k), k)
	res.set("peak_rss_mb", median(rss), len(rss))
	res.set("quality_f1", median(f1s), k)
	if q := median(f1s); q < minF1 {
		res.problem("the mined rules repair with a median weighted F1 of %.4f, below %.2f", q, minF1)
	}
	res.speed = cal.speed()
	return res, nil
}

// sameAs is the earlier mine that must have exported what mine i did.
func (m *miningRun) sameAs(i int) int {
	if m.w.kind == kindMineRL {
		return i - 3
	}
	return 0
}

// rlCounts is the work one replayed RLMiner mine did.
type rlCounts struct {
	steps, inferSteps, episodes, resets, cacheHits int
}

// replayRL re-runs rlminer.Mine's loop through the layers' public
// functions — mdp.Env.Reset/Step, rl.Agent.SelectAction/Observe/
// TrainStep, the greedy episode and core.SelectTopK — with rlminer's
// defaults, recording a span around each call.
func replayRL(p *core.Problem, seed int64, steps int, tr *tracer, tid int64) ([]core.MinedRule, *mdp.Env, rlCounts, error) {
	var c rlCounts
	root := tr.start(tid, 0, "mine")
	defer tr.end(root)
	env, err := mdp.NewEnv(p, mdp.Config{})
	if err != nil {
		return nil, nil, c, fmt.Errorf("building the MDP environment: %w", err)
	}
	agent := rl.NewAgent(detrand.New(seed), env.StateDim(), env.ActionDim(), rl.Config{
		EpsDecaySteps: steps * 6 / 10,
		Hidden:        []int{64, 64},
	})
	call := func(name string, parent int64, f func()) {
		id := tr.start(tid, parent, name)
		f()
		tr.end(id)
	}
	var state []float64
	var mask []bool
	inEpisode := false
	for n := 0; n < steps; n++ {
		if !inEpisode {
			call("mdp.reset", root, func() { state, mask = env.Reset() })
			c.resets++
			inEpisode = true
		}
		var a int
		call("rl.select", root, func() { a = agent.SelectAction(state, mask, agent.Epsilon()) })
		evals := env.Evaluator().Stats.Evaluations
		var res mdp.StepResult
		call("mdp.step", root, func() { res = env.Step(a) })
		if env.Evaluator().Stats.Evaluations == evals {
			c.cacheHits++
		}
		call("rl.observe", root, func() {
			agent.Observe(rl.Transition{State: state, Action: a, Reward: res.Reward, Next: res.State, NextMask: res.Mask, Done: res.Done})
		})
		call("rl.train", root, func() { agent.TrainStep() })
		state, mask = res.State, res.Mask
		c.steps++
		if env.Done() {
			inEpisode = false
			c.episodes++
		}
	}
	infer := tr.start(tid, root, "rlminer.infer")
	call("mdp.reset", infer, func() { state, mask = env.Reset() })
	c.resets++
	for !env.Done() && c.inferSteps < 300 {
		var a int
		call("rl.select", infer, func() { a = agent.SelectAction(state, mask, 0) })
		var res mdp.StepResult
		call("mdp.step", infer, func() { res = env.Step(a) })
		state, mask = res.State, res.Mask
		c.inferSteps++
	}
	tr.end(infer)
	var rules []core.MinedRule
	call("core.select_topk", root, func() { rules = core.SelectTopK(env.AllFound(), p.K()) })
	return rules, env, c, nil
}

// trace runs the traced mining workload.
func (m *miningRun) trace() (*result, error) {
	if m.w.kind == kindMineRL {
		return m.traceRL()
	}
	return m.traceEnum()
}

// traceRL mines once with rlminer.Mine as the reference, then replays
// the same mine traced and untraced; both replays must export exactly
// the reference's rules.
func (m *miningRun) traceRL() (*result, error) {
	res := newResult(m.w.name, m.env.seed)
	seed := m.rlSeed(0)
	p, err := m.in.loadProblem()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ref, err := rlminer.New(rlminer.Config{TrainSteps: rlSteps, Seed: seed}).Mine(p)
	refWall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("reference mine: %w", err)
	}
	want, err := rulesio.Export(p, ref.Rules)
	if err != nil {
		return nil, fmt.Errorf("exporting mined rules: %w", err)
	}

	tr := newTracer()
	var tracedWall, plainWall time.Duration
	var counts rlCounts
	var env *mdp.Env
	var rt []float64
	for pass := 0; pass < 2; pass++ {
		p, err := m.in.loadProblem()
		if err != nil {
			return nil, err
		}
		var tt *tracer
		if pass == 0 {
			tt = tr
		}
		before := readRuntime()
		start := time.Now()
		rules, e, c, err := replayRL(p, seed, rlSteps, tt, 1)
		d := time.Since(start)
		after := readRuntime()
		if err != nil {
			return nil, err
		}
		got, err := rulesio.Export(p, rules)
		if err != nil {
			return nil, fmt.Errorf("exporting replayed rules: %w", err)
		}
		if !bytes.Equal(got, want) {
			res.problem("the replayed mine (pass %d) exported different rules than rlminer.Mine", pass)
		}
		if pass == 0 {
			tracedWall, counts, env = d, c, e
			for i := range after {
				rt = append(rt, after[i]-before[i])
			}
		} else {
			plainWall = d
		}
	}
	res.attempted = 3

	spans := tr.snapshot()
	lt := aggregate(spans)
	var inferNS, layers int64
	for _, s := range spans {
		if s.Name == "rlminer.infer" {
			inferNS += s.EndNS - s.StartNS
		}
	}
	for name, ns := range lt.selfNS {
		if name != "mine" {
			layers += ns
		}
	}
	perCall := func(name string) float64 { return us(lt.selfNS[name]) / float64(max(lt.calls[name], 1)) }
	st := env.Evaluator().Stats
	res.set("mdp.step_us", perCall("mdp.step"), lt.calls["mdp.step"])
	res.set("mdp.reset_us", perCall("mdp.reset"), lt.calls["mdp.reset"])
	res.set("mdp.steps", float64(counts.steps+counts.inferSteps), 1)
	res.set("mdp.episodes", float64(counts.episodes), 1)
	res.set("mdp.reward_cache_hit_frac", float64(counts.cacheHits)/float64(counts.steps), counts.steps)
	res.set("rl.select_us", perCall("rl.select"), lt.calls["rl.select"])
	res.set("rl.observe_us", perCall("rl.observe"), lt.calls["rl.observe"])
	res.set("rl.train_us", perCall("rl.train"), lt.calls["rl.train"])
	res.set("rlminer.infer_ms", float64(inferNS)/1e6, 1)
	res.set("core.select_topk_us", perCall("core.select_topk"), 1)
	res.set("measure.evaluations", float64(st.Evaluations), 1)
	res.set("measure.index_builds", float64(st.IndexBuilds), 1)
	res.set("measure.tuples_scanned", float64(st.TuplesScanned), 1)
	res.set("runtime.allocs_per_op", rt[0], 1)
	res.set("runtime.bytes_per_op", rt[1], 1)
	res.set("runtime.gc_cpu_frac", rt[2]/tracedWall.Seconds(), 1)
	res.set("trace.overhead_frac", tracedWall.Seconds()/plainWall.Seconds()-1, 1)
	res.set("trace.attribution_gap", math.Abs(float64(layers)-float64(refWall.Nanoseconds()))/float64(refWall.Nanoseconds()), 1)
	res.set("load.sent", 3, 3)
	if err := m.env.writeSpans(spans); err != nil {
		return nil, err
	}
	return res, nil
}

// traceEnum alternates traced and untraced EnuMiner-H3 mines. The miner
// exposes no finer public calls, so its layer is the mine itself and
// the evaluations are its explored candidates.
func (m *miningRun) traceEnum() (*result, error) {
	res := newResult(m.w.name, m.env.seed)
	p, err := m.in.loadProblem()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var tracedWall, plainWall time.Duration
	var traced, plain, explored int
	var rt []float64
	n := max(4, m.mines()/2)
	for i := 0; i < n; i++ {
		var tt *tracer
		if i%2 == 0 {
			tt = tr
		}
		before := readRuntime()
		start := time.Now()
		id := tt.start(int64(i+1), 0, "enuminer.mine")
		rs, err := enuminer.NewH3(enuminer.Config{}).Mine(p)
		tt.end(id)
		d := time.Since(start)
		after := readRuntime()
		res.attempted++
		if err != nil {
			return nil, fmt.Errorf("mine %d: %w", i, err)
		}
		if tt == nil {
			plainWall += d
			plain++
			continue
		}
		tracedWall += d
		traced++
		explored += rs.Explored
		if rt == nil {
			rt = make([]float64, len(after))
		}
		for j := range after {
			rt[j] += after[j] - before[j]
		}
	}
	lt := aggregate(tr.snapshot())
	k := float64(traced)
	res.set("enuminer.explored", float64(explored)/k, traced)
	res.set("enuminer.us_per_candidate", us(lt.selfNS["enuminer.mine"])/float64(explored), explored)
	res.set("measure.evaluations", float64(explored)/k, traced)
	res.set("runtime.allocs_per_op", rt[0]/k, traced)
	res.set("runtime.bytes_per_op", rt[1]/k, traced)
	res.set("runtime.gc_cpu_frac", rt[2]/tracedWall.Seconds(), traced)
	tracedMean := tracedWall.Seconds() / k
	plainMean := plainWall.Seconds() / float64(plain)
	res.set("trace.overhead_frac", tracedMean/plainMean-1, traced)
	res.set("trace.attribution_gap", math.Abs(float64(lt.selfNS["enuminer.mine"])/1e9/k-plainMean)/plainMean, traced)
	res.set("load.sent", float64(n), n)
	if err := m.env.writeSpans(tr.snapshot()); err != nil {
		return nil, err
	}
	return res, nil
}

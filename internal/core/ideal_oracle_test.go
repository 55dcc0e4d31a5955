package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frac"
	"repro/internal/ideal"
	"repro/internal/model"
)

// isOracle is one task's closed-book ideal: internal/ideal's Fig. 2
// allocator for the task's constant weight and the IS offsets its
// releases have accumulated so far.
type isOracle struct {
	w       frac.Rat
	offsets []model.Time // offsets[i-1] = θ(T_i); later subtasks reuse the last
	alloc   *ideal.Allocator
}

func newISOracle(w frac.Rat, join model.Time) *isOracle {
	o := &isOracle{w: w, offsets: []model.Time{join}}
	o.rebuild()
	return o
}

func (o *isOracle) rebuild() { o.alloc = ideal.NewAllocator(o.task()) }

func (o *isOracle) task() ideal.Task { return ideal.MustTask(o.w, o.offsets...) }

// delay mirrors Scheduler.DelayNext(sep) at time now: the first subtask
// not yet released before now, and every later one, shift by sep.
func (o *isOracle) delay(now model.Time, sep int64) {
	task := o.task()
	i := int64(1)
	for task.Window(i).Release < now {
		i++
	}
	for int64(len(o.offsets)) < i {
		o.offsets = append(o.offsets, o.offsets[len(o.offsets)-1])
	}
	for k := i - 1; k < int64(len(o.offsets)); k++ {
		o.offsets[k] += model.Time(sep)
	}
	o.rebuild()
}

// TestSWAccrualMatchesIdealIS is the differential check between the
// engine's lazy closed-form I_SW accrual and internal/ideal, the
// paper's Fig. 2 definition of A(I_IS, T, t). For a task that is never
// reweighted the SW ideal is the IS ideal, so at every slot each task's
// TaskMetrics.CumSW must equal the oracle's TaskCum exactly. Tasks are
// random static periodic tasks joining at random times, some of them
// made intra-sporadic by Scheduler.DelayNext separations.
func TestSWAccrualMatchesIdealIS(t *testing.T) {
	const horizon = 160
	r := rand.New(rand.NewSource(12))
	delays := 0
	for trial := 0; trial < 24; trial++ {
		m := 1 + r.Intn(3)
		var specs []model.Spec
		total := frac.Zero
		oracles := map[string]*isOracle{}
		for i := 0; i < 2+r.Intn(6); i++ {
			w := randomLightWeight(r, 20)
			if frac.FromInt(int64(m)).Less(total.Add(w)) {
				break
			}
			total = total.Add(w)
			name := fmt.Sprintf("T%d", i)
			join := model.Time(0)
			if i > 0 && r.Intn(2) == 0 {
				join = model.Time(r.Intn(12))
			}
			specs = append(specs, model.Spec{Name: name, Weight: w, Join: join})
			oracles[name] = newISOracle(w, join)
		}
		s := mustNew(t, Config{M: m, Policy: PolicyOI, Police: true, CheckInvariants: true}, model.System{M: m, Tasks: specs})
		sporadic := map[string]bool{}
		for _, sp := range specs {
			sporadic[sp.Name] = r.Intn(2) == 0
		}
		for s.Now() < horizon {
			now := s.Now()
			for _, sp := range specs {
				if !sporadic[sp.Name] || now < sp.Join || r.Intn(6) != 0 {
					continue
				}
				sep := int64(1 + r.Intn(4))
				if err := s.DelayNext(sp.Name, sep); err != nil {
					continue // nothing pending to delay right now; the oracle is untouched too
				}
				oracles[sp.Name].delay(now, sep)
				delays++
			}
			s.Step()
			for _, sp := range specs {
				got := mustMetrics(t, s, sp.Name).CumSW
				want := oracles[sp.Name].alloc.TaskCum(s.Now())
				if !got.Eq(want) {
					t.Fatalf("trial %d (M=%d) %s (wt %s, θ %v): A(I_SW,T,0,%d) = %s, ideal A(I_IS,T,0,%d) = %s",
						trial, m, sp.Name, sp.Weight, oracles[sp.Name].offsets, s.Now(), got, s.Now(), want)
				}
			}
		}
		if v := s.Violations(); len(v) != 0 {
			t.Fatalf("trial %d: invariant violations: %v", trial, v)
		}
	}
	if delays == 0 {
		t.Fatal("no IS separation took effect; the sporadic half of the check is vacuous")
	}
}

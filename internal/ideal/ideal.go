// Package ideal implements the ideal per-slot allocations of the
// intra-sporadic (IS) task model — the A(I_IS, T_j, t) function of Fig. 2 in
// the paper.
//
// The ideal IS schedule allocates each subtask T_i some processing time in
// every slot of its window [r(T_i), d(T_i)). For slots other than the first
// and last, the allocation is wt(T). The first and last slots are adjusted
// so that (i) the subtask's total allocation across its window is exactly
// one quantum, and (ii) the allocation in the first slot plus the
// predecessor's allocation in its last slot equals wt(T) whenever the
// predecessor's b-bit is 1.
//
// The package is internal/core's oracle. It shares no code with the
// engine: for a task that is never reweighted the engine's I_SW ideal is
// exactly this I_IS ideal, and core's TestSWAccrualMatchesIdealIS checks
// the engine's lazy closed-form I_SW accrual against TaskCum at every slot
// for random periodic tasks and IS tasks delayed through
// Scheduler.DelayNext. The package also carries the golden tests of the
// paper's Fig. 1 and the I_PS and lag helpers for non-adaptive tasks.
package ideal

import (
	"fmt"

	"repro/internal/frac"
	"repro/internal/model"
)

// Task describes one IS task for the ideal allocator: a constant weight and
// per-subtask release offsets. Offsets[i-1] is θ(T_i); subtasks beyond the
// slice reuse the last offset (or 0 if the slice is empty), matching the IS
// requirement that offsets are non-decreasing.
type Task struct {
	W       frac.Rat
	Offsets []model.Time
}

// NewTask returns a Task after validating the weight and the offsets
// (offsets must be non-negative and non-decreasing).
func NewTask(w frac.Rat, offsets ...model.Time) (Task, error) {
	if err := model.CheckWeight(w); err != nil {
		return Task{}, err
	}
	prev := model.Time(0)
	for i, th := range offsets {
		if th < prev {
			return Task{}, fmt.Errorf("ideal: offsets must be non-decreasing (offset %d is %d after %d)", i+1, th, prev)
		}
		prev = th
	}
	return Task{W: w, Offsets: offsets}, nil
}

// MustTask is NewTask but panics on error; for tests and examples.
func MustTask(w frac.Rat, offsets ...model.Time) Task {
	t, err := NewTask(w, offsets...)
	if err != nil {
		panic(err)
	}
	return t
}

// Theta returns θ(T_i).
func (t Task) Theta(i int64) model.Time {
	if len(t.Offsets) == 0 {
		return 0
	}
	if int(i) <= len(t.Offsets) {
		return t.Offsets[i-1]
	}
	return t.Offsets[len(t.Offsets)-1]
}

// Window returns the window of subtask i.
func (t Task) Window(i int64) model.Window {
	return model.SubtaskWindow(t.W, t.Theta(i), i)
}

// BBit returns b(T_i).
func (t Task) BBit(i int64) int64 { return model.BBit(t.W, i) }

// Allocator computes and memoizes A(I_IS, T_i, t) for one task.
type Allocator struct {
	task  Task
	first []frac.Rat // first[i-1] = allocation in slot r(T_i)
	last  []frac.Rat // last[i-1]  = allocation in slot d(T_i)-1
}

// NewAllocator returns an allocator for the given task.
func NewAllocator(task Task) *Allocator {
	return &Allocator{task: task}
}

// ensure computes first/last boundary allocations for subtasks 1..i.
func (a *Allocator) ensure(i int64) {
	for int64(len(a.first)) < i {
		j := int64(len(a.first)) + 1
		w := a.task.W
		win := a.task.Window(j)
		var first frac.Rat
		if j == 1 || a.task.BBit(j-1) == 0 {
			first = w
		} else {
			first = w.Sub(a.last[j-2])
		}
		// Middle slots receive w each; the final slot tops the total up to 1.
		middle := win.Len() - 2
		var last frac.Rat
		if win.Len() == 1 {
			// Weight-1 task: the single slot holds the whole quantum.
			first = frac.One
			last = frac.One
		} else {
			last = frac.One.Sub(first).Sub(w.MulInt(middle))
			last = frac.Min(last, w)
		}
		a.first = append(a.first, first)
		a.last = append(a.last, last)
	}
}

// Alloc returns A(I_IS, T_i, t), the ideal allocation to subtask i in slot t.
func (a *Allocator) Alloc(i int64, t model.Time) frac.Rat {
	win := a.task.Window(i)
	if !win.Contains(t) {
		return frac.Zero
	}
	a.ensure(i)
	switch {
	case t == win.Release:
		return a.first[i-1]
	case t == win.Deadline-1:
		return a.last[i-1]
	default:
		return a.task.W
	}
}

// SubtaskCum returns A(I_IS, T_i, 0, t), subtask i's cumulative ideal
// allocation before time t.
func (a *Allocator) SubtaskCum(i int64, t model.Time) frac.Rat {
	win := a.task.Window(i)
	switch {
	case t <= win.Release:
		return frac.Zero
	case t >= win.Deadline:
		return frac.One
	}
	a.ensure(i)
	// Slots r..t-1 are covered; the first holds first[i-1] and every other
	// covered slot holds w (the last slot d-1 is only covered when t == d,
	// which the guard above already resolved to 1).
	return a.first[i-1].Add(a.task.W.MulInt(t - win.Release - 1))
}

// TaskSlot returns A(I_IS, T, t) = Σ_i A(I_IS, T_i, t) for the at-most-two
// subtasks whose windows can contain slot t.
func (a *Allocator) TaskSlot(t model.Time) frac.Rat {
	total := frac.Zero
	for _, i := range a.subtasksAt(t) {
		total = total.Add(a.Alloc(i, t))
	}
	return total
}

// subtasksAt returns the indices of subtasks whose windows contain t. For
// weights <= 1 at most two consecutive windows can overlap a slot, so a
// short scan around the density estimate suffices.
func (a *Allocator) subtasksAt(t model.Time) []int64 {
	if t < a.task.Window(1).Release {
		return nil
	}
	// Lower bound: index such that d(T_i) > t. Without offsets, i ~ w*t.
	// Offsets only delay windows, so start at max(1, floor(w*t) - 1) and
	// scan forward until windows start after t.
	start := a.task.W.MulInt(t).Floor() - 1
	if start < 1 {
		start = 1
	}
	// Offsets shift releases later, never earlier, so windows at or after
	// index `start` may still be too late; scan back while the previous
	// window's deadline exceeds t.
	for start > 1 && a.task.Window(start-1).Deadline > t {
		start--
	}
	var out []int64
	for i := start; ; i++ {
		win := a.task.Window(i)
		if win.Release > t {
			break
		}
		if win.Contains(t) {
			out = append(out, i)
		}
	}
	return out
}

// TaskCum returns A(I_IS, T, 0, t), the cumulative ideal allocation to the
// whole task before time t.
func (a *Allocator) TaskCum(t model.Time) frac.Rat {
	total := frac.Zero
	for i := int64(1); ; i++ {
		win := a.task.Window(i)
		if win.Release >= t {
			break
		}
		total = total.Add(a.SubtaskCum(i, t))
	}
	return total
}

// ClosedForm returns A(I_IS, T_i, t) by the arithmetic expression the paper
// alludes to ("A(I_IS, T_j, u) can be defined using an arithmetic
// expression, but we have opted instead for a more intuitive
// pseudo-code-based definition"):
//
//	A(I_IS, T_i, t) = max(0, min( w,
//	                              w·(t-θ+1) - (i-1),   // ramp-in at the release
//	                              i - w·(t-θ) ))       // ramp-out at the deadline
//
// for t in the window and 0 outside. The first boundary term says the
// subtask only receives what lies beyond the (i-1)-quantum mark of the
// task's fluid allocation; the second that it stops at the i-quantum mark.
// Their sum with the neighbouring subtasks' boundary slots is always
// exactly w, which is the pairing property the recursive definition
// maintains. TestClosedFormMatchesAllocator checks equivalence.
func ClosedForm(task Task, i int64, t model.Time) frac.Rat {
	win := task.Window(i)
	if !win.Contains(t) {
		return frac.Zero
	}
	w := task.W
	rel := t - task.Theta(i)
	rampIn := w.MulInt(rel + 1).Sub(frac.FromInt(i - 1))
	rampOut := frac.FromInt(i).Sub(w.MulInt(rel))
	alloc := frac.Min(w, frac.Min(rampIn, rampOut))
	return frac.Max(frac.Zero, alloc)
}

// PSCum returns the processor-sharing ideal allocation w*t to a task of
// constant weight w over [0, t) — the I_PS schedule of a non-adaptive task.
func PSCum(w frac.Rat, t model.Time) frac.Rat {
	return w.MulInt(t)
}

// Lag returns lag(T, t) = w*t - actual for a periodic task of weight w whose
// actual allocation before t is given. The Pfair correctness condition is
// -1 < lag < 1 for all t.
func Lag(w frac.Rat, t model.Time, actual frac.Rat) frac.Rat {
	return PSCum(w, t).Sub(actual)
}

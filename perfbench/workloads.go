package main

import (
	"math"
	"math/rand"

	"repro/internal/forest"
	"repro/internal/octant"
	"repro/internal/workload"
)

// spec is one benchmark workload.  Each one runs in this process with its
// simulated ranks as goroutines, so ranks and rank-local workers are kept
// within the machine's CPU count where the workload allows.
type spec struct {
	name    string
	ranks   int
	workers int  // rank-local worker pool of Balance and the ghost scan
	socket  bool // ranks split over two socket transports, see socketLayer
	amr     bool // iteration is an AMR cycle instead of one balance
	// build derives the workload's input from the seed.  The program
	// receives only the forest this produces.
	build func(seed int64) input
}

// input is a seeded workload instance.
type input struct {
	conn      *forest.Connectivity
	baseLevel int
	maxLevel  int
	// refine is the setup refinement rule of the static workloads.
	refine func(tree int32, o octant.Octant) bool
	// front and steps drive the AMR cycle.
	front front
	steps int
}

// overlayPercent is the split probability per level of the seeded random
// overlay on the static workloads: a small share of extra refinement on
// top of the paper's rule, so every seed is a different mesh of the same
// character.
const overlayPercent = 1

func overlay(rule, random func(int32, octant.Octant) bool) func(int32, octant.Octant) bool {
	return func(t int32, o octant.Octant) bool { return rule(t, o) || random(t, o) }
}

// Workload sizes are bounded by the serial oracle, which every new
// (workload, seed) pair pays once outside the timed region: at about
// 20-35 µs per octant for RefBalance plus CheckForest, a few hundred
// thousand octants keep a run within its time budget.
var specs = []*spec{
	{
		// Compute-only: one rank, zero messages.  Local balance, query
		// construction and rebalance carry all the time; notify, the wire
		// codec and the transports are bypassed.
		name: "fractal-p1", ranks: 1, workers: 2,
		build: func(seed int64) input {
			const base, max = 2, 6
			return input{
				conn: workload.FractalForest(3), baseLevel: base, maxLevel: max,
				refine: overlay(workload.Fractal(max), workload.Random(seed, overlayPercent, max)),
			}
		},
	},
	{
		// Many ranks on a masked brick: cross-tree and cross-rank queries
		// run notify, query/response, the wire codec and in-process
		// message passing, and ranks wait on each other.
		name: "icesheet-p16", ranks: 16,
		build: func(seed int64) input {
			const base, max = 4, 10
			is := workload.NewIceSheet(2, 32, max)
			return input{
				conn: is.Conn, baseLevel: base, maxLevel: max,
				refine: overlay(is.Refine, workload.Random(seed, overlayPercent, max)),
			}
		},
	},
	{
		// The whole AMR cycle on an almost-balanced mesh: refine, coarsen,
		// partition and ghost carry much of each step.  Its traced run
		// repeats the cycle over two socket transports, which measures
		// netcomm and the reliable seq/ack layer; as a workload of its own
		// that variant's timings spread too widely between runs to gate.
		name: "amr-cycle-p4", ranks: 4, amr: true, build: amrInput,
	},
}

// faultSpec is the reduced workload of the planted-fault self-check.
var faultSpec = &spec{
	name: "selfcheck-icesheet-p4", ranks: 4,
	build: func(seed int64) input {
		const base, max = 2, 7
		is := workload.NewIceSheet(2, 8, max)
		return input{conn: is.Conn, baseLevel: base, maxLevel: max, refine: is.Refine}
	},
}

func lookup(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// front is an expanding circular refinement front on the 2D brick, in
// tree-grid units.
type front struct {
	cx, cy, r0, speed float64
}

const (
	amrGrid  = 6
	amrBase  = 2
	amrMax   = 10
	amrSteps = 8
)

// amrInput places the front's centre and sets its speed from the seed.
// The ranges are narrow because the cost per octant depends on where the
// front meets the brick's edges; wider ranges make seeds differ by more
// than a run's noise.
func amrInput(seed int64) input {
	rng := rand.New(rand.NewSource(seed))
	c := float64(amrGrid) / 2
	return input{
		conn:      forest.NewBrick(2, amrGrid, amrGrid, 1, [3]bool{}),
		baseLevel: amrBase, maxLevel: amrMax, steps: amrSteps,
		front: front{
			cx:    c + 0.2*(rng.Float64()-0.5),
			cy:    c + 0.2*(rng.Float64()-0.5),
			r0:    0.5,
			speed: 0.30 + 0.02*rng.Float64(),
		},
	}
}

func (fr front) radius(step int) float64 { return fr.r0 + fr.speed*float64(step) }

// near reports whether a leaf's cell lies within one cell size of the
// front at the given step.
func (fr front) near(conn *forest.Connectivity, tree int32, o octant.Octant, step int) bool {
	tx, ty, _ := conn.TreeCell(tree)
	h := float64(o.Len()) / float64(octant.RootLen)
	x := float64(tx) + float64(o.X)/float64(octant.RootLen) + h/2
	y := float64(ty) + float64(o.Y)/float64(octant.RootLen) + h/2
	return math.Abs(math.Hypot(x-fr.cx, y-fr.cy)-fr.radius(step)) < h
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/netcomm"
	"repro/internal/obs"
)

// watchdog bounds every Run: a hung collective becomes a panic that the
// iteration counts as failed instead of a benchmark that never ends.
const watchdog = 60 * time.Second

// world is one simulated machine: either a single in-process comm.World,
// or one world split over two netcomm socket transports inside this
// process, ranks [0, P/2) on the leader and [P/2, P) on the worker, the
// way two cmd/octd processes would split it.
type world struct {
	parts      []*comm.World
	spans      [][2]int
	transports []*netcomm.Transport
	cleanup    func()
	rendezvous time.Duration
}

func newInProcWorld(ranks int) *world {
	w := comm.NewWorld(ranks)
	w.SetTimeout(watchdog)
	return &world{parts: []*comm.World{w}, spans: [][2]int{{0, ranks}}, cleanup: func() {}}
}

// newSocketWorld rendezvouses two transports over a unix socket.  The
// socket path is relative to the working directory, so it stays inside the
// checkout and short enough for the sun_path limit.
func newSocketWorld(ranks int, sockDir string) (*world, error) {
	if err := os.MkdirAll(sockDir, 0o755); err != nil {
		return nil, err
	}
	leaderAddr := filepath.Join(sockDir, fmt.Sprintf("l%d.sock", os.Getpid()))
	workerAddr := filepath.Join(sockDir, fmt.Sprintf("w%d.sock", os.Getpid()))
	_ = os.Remove(leaderAddr) // a stale socket from a killed run
	_ = os.Remove(workerAddr)
	start := time.Now()
	ln, cleanup, err := netcomm.Listen("unix", leaderAddr)
	if err != nil {
		return nil, fmt.Errorf("socket world: listen: %w", err)
	}
	half := ranks / 2
	type joined struct {
		tr  *netcomm.Transport
		err error
	}
	ch := make(chan joined, 1)
	go func() {
		tr, _, err := netcomm.Join(netcomm.JoinConfig{
			Network: "unix", Addr: leaderAddr, ListenAddr: workerAddr,
			Span: netcomm.Span{Lo: half, Hi: ranks},
		})
		ch <- joined{tr, err}
	}()
	lt, _, err := netcomm.Lead(ln, netcomm.LeadConfig{
		WorldSize: ranks, Procs: 2, Span: netcomm.Span{Lo: 0, Hi: half},
	})
	j := <-ch
	if err != nil || j.err != nil {
		if lt != nil {
			lt.Stop()
		}
		if j.tr != nil {
			j.tr.Stop()
		}
		cleanup()
		return nil, fmt.Errorf("socket world: rendezvous: lead %v, join %v", err, j.err)
	}
	w := &world{
		parts:      []*comm.World{comm.NewWorldTransport(ranks, lt), comm.NewWorldTransport(ranks, j.tr)},
		spans:      [][2]int{{0, half}, {half, ranks}},
		transports: []*netcomm.Transport{lt, j.tr},
		cleanup:    cleanup,
		rendezvous: time.Since(start),
	}
	for _, p := range w.parts {
		p.SetTimeout(watchdog)
	}
	return w, nil
}

// run executes fn on every rank and waits for all of them.  A rank panic
// (a typed comm error, a watchdog dump, a forest invariant) is returned as
// an error; the world is unusable afterwards.
func (w *world) run(fn func(c *comm.Comm)) (err error) {
	if len(w.parts) == 1 {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%v", p)
			}
		}()
		w.parts[0].Run(fn)
		return nil
	}
	errs := make([]error, len(w.parts))
	var wg sync.WaitGroup
	for i, p := range w.parts {
		wg.Add(1)
		go func(i int, p *comm.World) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("%v", r)
				}
			}()
			p.RunRanks(w.spans[i][0], w.spans[i][1], fn)
		}(i, p)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func (w *world) setTracer(tr *obs.Tracer) {
	for _, p := range w.parts {
		p.SetTracer(tr)
	}
}

// phaseStats sums the logical meters of every phase label over the parts
// (each part meters the sends of its own ranks).
func (w *world) phaseStats() map[string]comm.Stats {
	out := make(map[string]comm.Stats)
	for _, p := range w.parts {
		for _, ph := range p.Phases() {
			s := out[ph]
			s.Add(p.PhaseStats(ph))
			out[ph] = s
		}
	}
	return out
}

func (w *world) netStats() comm.NetStats {
	var t comm.NetStats
	for _, p := range w.parts {
		s := p.NetStats()
		t.DataPackets += s.DataPackets
		t.AckPackets += s.AckPackets
		t.Retries += s.Retries
		t.DupsDropped += s.DupsDropped
		t.WireBytes += s.WireBytes
		t.BackpressureStalls += s.BackpressureStalls
	}
	return t
}

// socketBytes is the number of bytes the transports wrote to their sockets,
// frame headers included.
func (w *world) socketBytes() int64 {
	var n int64
	for _, t := range w.transports {
		n += t.Stats().BytesSent
	}
	return n
}

func (w *world) close() {
	var wg sync.WaitGroup
	for _, p := range w.parts {
		wg.Add(1)
		go func(p *comm.World) {
			defer wg.Done()
			p.Close()
		}(p)
	}
	wg.Wait()
	w.cleanup()
}

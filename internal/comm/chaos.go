package comm

import (
	"sync"
	"sync/atomic"
	"time"
)

// ChaosConfig parameterizes seeded transport fault injection.  All
// probabilities are percentages in [0, 100].  The zero value injects no
// faults; use DefaultChaosConfig for a representative mix.
type ChaosConfig struct {
	// Seed drives every fault decision.  Data-packet fates are a pure
	// function of (Seed, src, dst, seq, attempt), so a replayed run sees
	// the identical drop/dup/delay pattern on the logical traffic
	// regardless of goroutine scheduling.
	Seed uint64

	DropPct  int           // per-attempt probability a packet vanishes
	DupPct   int           // probability a packet is delivered twice
	DelayPct int           // probability a packet is delayed
	MaxDelay time.Duration // delay drawn uniformly from (0, MaxDelay]

	// StallPct is the per-rank probability of one stall window: a span of
	// StallDur during which every packet to or from that rank is held and
	// released only when the window closes (a paused process / GC pause /
	// overloaded NIC).  Window placement is drawn from Seed.
	StallPct int
	StallDur time.Duration

	// DisableReliability makes the transport claim Reliable() == true
	// while still injecting faults, which turns off the World's ack/retry
	// and dedup protocol.  Dropped messages are then lost forever and
	// duplicates reach the application.  This exists solely as the
	// lost-message canary: any differential sweep run in this mode MUST
	// fail; if it passes, the reliable-delivery layer has stopped doing
	// its job (see cmd/stress -chaos-canary).
	DisableReliability bool
}

// DefaultChaosConfig returns an aggressive but fast fault mix: drops, dups
// and sub-millisecond delays on every channel plus a stall window on a
// quarter of the ranks.  Delays are kept small so chaos sweeps stay within
// the same time budget as perfect-transport sweeps.
func DefaultChaosConfig(seed uint64) ChaosConfig {
	return ChaosConfig{
		Seed:     seed,
		DropPct:  15,
		DupPct:   10,
		DelayPct: 25,
		MaxDelay: 500 * time.Microsecond,
		StallPct: 25,
		StallDur: 2 * time.Millisecond,
	}
}

// ChaosCounts reports what the injector actually did, for test assertions
// and sweep logs.
type ChaosCounts struct {
	Sent       int64 // packets submitted
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Stalled    int64 // packets held by a rank stall window
}

// ChaosTransport injects seeded delay, reordering, duplication, drops and
// per-rank stall windows between the reliable-delivery layer and the
// mailboxes.  Fault decisions for data packets are deterministic in
// (Seed, src, dst, seq, attempt); ack packets mix in a nonce (their
// cumulative-ack value repeats, and an identical fate for every identical
// ack could drop the same acknowledgement forever).
type ChaosTransport struct {
	cfg     ChaosConfig
	deliver func(Packet)
	start   time.Time
	stopped atomic.Bool
	nonce   atomic.Uint64

	stallMu sync.Mutex
	stalls  map[int][2]time.Time // rank -> stall window [from, until)

	// timers tracks the AfterFunc of every delayed delivery still in
	// flight, and pendingWG counts them, so Stop can cancel what has not
	// fired and wait out what has — without this, a torn-down world would
	// leak one goroutine per pending delayed packet (and the delivery
	// could touch freed channel state).
	timerMu sync.Mutex
	timers  map[*uint8]*time.Timer
	pending sync.WaitGroup

	sent, dropped, duplicated, delayed, stalled atomic.Int64
}

// NewChaosTransport builds a fault-injecting transport from cfg.
func NewChaosTransport(cfg ChaosConfig) *ChaosTransport {
	return &ChaosTransport{cfg: cfg, stalls: make(map[int][2]time.Time), timers: make(map[*uint8]*time.Timer)}
}

func (t *ChaosTransport) Start(deliver func(Packet)) {
	t.deliver = deliver
	t.start = time.Now()
}

func (t *ChaosTransport) Reliable() bool { return t.cfg.DisableReliability }

// Stop tears the injector down: the stopped flag gates direct deliveries,
// every delayed delivery that has not fired yet is cancelled, and Stop
// blocks until the ones already firing have drained.  After Stop returns
// no goroutine of this transport touches the delivery callback again.
// Idempotent.
func (t *ChaosTransport) Stop() {
	t.timerMu.Lock()
	t.stopped.Store(true)
	for key, tm := range t.timers {
		delete(t.timers, key)
		if tm.Stop() {
			t.pending.Done() // callback will never run; retire its slot
		}
	}
	t.timerMu.Unlock()
	t.pending.Wait()
}

// Counts returns a snapshot of the injector's activity.
func (t *ChaosTransport) Counts() ChaosCounts {
	return ChaosCounts{
		Sent:       t.sent.Load(),
		Dropped:    t.dropped.Load(),
		Duplicated: t.duplicated.Load(),
		Delayed:    t.delayed.Load(),
		Stalled:    t.stalled.Load(),
	}
}

// splitmix64 is the SplitMix64 finalizer, the repository-wide convention
// for deriving independent deterministic decisions from one seed.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fate derives the deterministic fault-decision stream for one packet.
func (t *ChaosTransport) fate(p Packet) uint64 {
	h := t.cfg.Seed
	h = splitmix64(h ^ uint64(uint32(p.Src))<<32 ^ uint64(uint32(p.Dst)))
	h = splitmix64(h ^ p.Seq)
	h = splitmix64(h ^ uint64(uint32(p.Tag))<<16 ^ uint64(uint32(p.Attempt))<<8 ^ uint64(p.Kind))
	if p.Kind == PacketAck || t.cfg.DisableReliability {
		// Acks repeat their cumulative value, and canary-mode packets
		// carry no sequence numbers at all — key these per transmission
		// instead, or every identical packet would share one fate.
		h = splitmix64(h ^ t.nonce.Add(1))
	}
	return h
}

// stallUntil returns the end of dst/src's stall window if the packet would
// land inside one, or the zero time.
func (t *ChaosTransport) stallUntil(p Packet, now time.Time) time.Time {
	if t.cfg.StallPct <= 0 || t.cfg.StallDur <= 0 {
		return time.Time{}
	}
	var until time.Time
	t.stallMu.Lock()
	for _, rank := range [2]int{p.Src, p.Dst} {
		win, ok := t.stalls[rank]
		if !ok {
			win = t.stallWindow(rank)
			t.stalls[rank] = win
		}
		if !win[0].IsZero() && now.Before(win[1]) && now.After(win[0]) && win[1].After(until) {
			until = win[1]
		}
	}
	t.stallMu.Unlock()
	return until
}

// stallWindow decides, from the seed alone, whether and when rank stalls.
// Windows open within the first few stall-durations after Start so short
// runs still exercise them.
func (t *ChaosTransport) stallWindow(rank int) [2]time.Time {
	h := splitmix64(t.cfg.Seed ^ 0x5741_4c4c ^ uint64(uint32(rank)))
	if int(h%100) >= t.cfg.StallPct {
		return [2]time.Time{}
	}
	offset := time.Duration((h >> 8) % uint64(4*t.cfg.StallDur))
	from := t.start.Add(offset)
	return [2]time.Time{from, from.Add(t.cfg.StallDur)}
}

func (t *ChaosTransport) Send(p Packet) {
	t.sent.Add(1)
	h := t.fate(p)

	if d := h % 100; int(d) < t.cfg.DropPct {
		t.dropped.Add(1)
		return
	}
	h = splitmix64(h)
	copies := 1
	if int(h%100) < t.cfg.DupPct {
		copies = 2
		t.duplicated.Add(1)
	}
	h = splitmix64(h)
	var delay time.Duration
	if t.cfg.MaxDelay > 0 && int(h%100) < t.cfg.DelayPct {
		delay = 1 + time.Duration((h>>8)%uint64(t.cfg.MaxDelay))
		t.delayed.Add(1)
	}
	now := time.Now()
	if until := t.stallUntil(p, now); !until.IsZero() {
		if d := until.Sub(now); d > delay {
			delay = d
		}
		t.stalled.Add(1)
	}
	for i := 0; i < copies; i++ {
		d := delay
		if i > 0 {
			// The duplicate takes its own path through the network.
			d += 1 + time.Duration(splitmix64(h^uint64(i))%uint64(100*time.Microsecond))
		}
		if d <= 0 {
			t.deliverGated(p)
			continue
		}
		t.sendDelayed(p, d)
	}
}

// sendDelayed schedules a delayed delivery that Stop can cancel or drain.
// Registration happens under timerMu with the stopped flag re-checked, so
// no timer can be added after Stop has begun cancelling (which would race
// its WaitGroup accounting).
func (t *ChaosTransport) sendDelayed(p Packet, d time.Duration) {
	key := new(uint8)
	t.timerMu.Lock()
	if t.stopped.Load() {
		t.timerMu.Unlock()
		return
	}
	t.pending.Add(1)
	t.timers[key] = time.AfterFunc(d, func() {
		t.timerMu.Lock()
		delete(t.timers, key)
		t.timerMu.Unlock()
		t.deliverGated(p)
		t.pending.Done()
	})
	t.timerMu.Unlock()
}

func (t *ChaosTransport) deliverGated(p Packet) {
	if t.stopped.Load() {
		return
	}
	t.deliver(p)
}

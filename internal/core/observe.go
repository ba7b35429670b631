package core

import "shelfsim/internal/isa"

// LoadSource identifies where a load obtained its value. In a timing
// simulator without data values, provenance is the value's identity: the
// axiomatic checker (internal/litmus) reconstructs which store the load
// architecturally observed from the (source, provider) pair.
type LoadSource uint8

const (
	// LoadFromCache means the load accessed the memory hierarchy.
	LoadFromCache LoadSource = iota
	// LoadFromStore means the load forwarded from the youngest matching
	// elder store (store-to-load forwarding).
	LoadFromStore
	// LoadFromLoad means a shelf load forwarded from a younger matching
	// IQ load that issued early (§III-D).
	LoadFromLoad
)

// EventKind enumerates the core's observation points.
type EventKind uint8

const (
	// EventIssue fires when any op issues. A load's event carries its
	// resolved provenance; a shelf store's carries the coalescing decision.
	EventIssue EventKind = iota
	// EventStoreCommit fires when a store's value is released to the cache
	// (IQ stores at retirement, uncoalesced shelf stores at writeback).
	EventStoreCommit
	// EventRetire fires when any op fully retires, in program order per
	// thread.
	EventRetire
	// EventSquash fires when a thread flushes; Seq is the first squashed
	// sequence number (every op with seq >= Seq is dead).
	EventSquash
)

// Event is one observation from the core's event stream. Events for one
// core are delivered in simulation order from a single goroutine.
type Event struct {
	Kind EventKind
	// Op is the op's class (isa.OpNop for EventSquash).
	Op    isa.OpClass
	Tid   int
	Seq   int64
	Cycle int64
	// ToShelf marks shelf-steered ops.
	ToShelf bool
	// Addr is the op's effective address (memory ops only).
	Addr uint64
	// Coalesced marks a shelf store that merged into an elder store's
	// queue entry or an undrained store-buffer slot instead of committing
	// to the cache itself.
	Coalesced bool
	// Source and ProviderSeq carry a load's provenance (EventIssue only):
	// the providing op's sequence number, or -1 for cache loads and every
	// other event.
	Source      LoadSource
	ProviderSeq int64
}

// SetObserver installs fn to receive the core's event stream: every op's
// issue (with load provenance and store coalescing), store commits,
// program-order retirement and squashes. The axiomatic litmus checker and
// the runner's retire-order check are its consumers. Events are delivered
// synchronously from the simulation loop; fn must not call back into the
// core. A nil fn removes the observer; with none installed the core makes
// no observer calls at all.
func (c *Core) SetObserver(fn func(Event)) { c.observer = fn }

// uopEvent builds u's event of the given kind. Emission sites check
// c.observer first, so a core with no observer never builds one.
func uopEvent(kind EventKind, u *uop, now int64) Event {
	return Event{Kind: kind, Op: u.inst.Op, Tid: u.tid, Seq: u.seq, Cycle: now,
		ToShelf: u.toShelf, Addr: u.inst.Addr, Coalesced: u.coalesced, ProviderSeq: -1}
}

// Package trace is the simulator's xentrace analogue: a bounded in-memory
// ring of typed records emitted by the hypervisor and guest models. The
// experiment harness consumes it to decompose yield events by source
// (Figure 7 of the paper) and to debug scheduling decisions.
package trace

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// Kind identifies the event class of a record.
type Kind uint8

// Record kinds, roughly mirroring the xentrace classes the paper uses.
const (
	KindNone       Kind = iota
	KindSchedule        // vCPU dispatched on a pCPU
	KindPreempt         // vCPU descheduled by slice expiry
	KindYield           // vCPU yielded (PLE or voluntary)
	KindBlock           // vCPU halted (idle)
	KindWake            // vCPU woken (event/IRQ)
	KindBoost           // vCPU boosted by the wake path
	KindVIPI            // virtual IPI relayed
	KindVIRQ            // virtual IRQ relayed
	KindPIRQ            // physical IRQ received by the hypervisor
	KindMigrate         // vCPU migrated between pools
	KindPoolResize      // micro-sliced pool grew or shrank
	KindDetect          // detector classified a critical service
	KindLock            // guest lock event (acquire/contend/release)
	KindTLB             // guest TLB shootdown event
	KindHotplug         // pCPU taken offline (arg0=0) or brought online (arg0=1)
	KindIPILost         // vIPI dropped past the retry limit and lost outright
	KindRepair          // recovery supervisor detection or repair action
	kindCount
)

var kindNames = [...]string{
	KindNone:       "none",
	KindSchedule:   "sched",
	KindPreempt:    "preempt",
	KindYield:      "yield",
	KindBlock:      "block",
	KindWake:       "wake",
	KindBoost:      "boost",
	KindVIPI:       "vipi",
	KindVIRQ:       "virq",
	KindPIRQ:       "pirq",
	KindMigrate:    "migrate",
	KindPoolResize: "poolresize",
	KindDetect:     "detect",
	KindLock:       "lock",
	KindTLB:        "tlb",
	KindHotplug:    "hotplug",
	KindIPILost:    "ipilost",
	KindRepair:     "repair",
}

// String returns the short name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one trace entry. Arg0/Arg1 carry kind-specific payloads (e.g.
// the yield reason, the RIP, the target vCPU).
type Record struct {
	Time simtime.Time
	Kind Kind
	Dom  int16
	VCPU int16
	PCPU int16
	Arg0 uint64
	Arg1 uint64
}

// String renders the record for debugging.
func (r Record) String() string {
	return fmt.Sprintf("%v %-9s d%dv%d p%d a0=%#x a1=%#x",
		r.Time, r.Kind, r.Dom, r.VCPU, r.PCPU, r.Arg0, r.Arg1)
}

// Buffer is a fixed-capacity ring of records. When full, the oldest records
// are overwritten (like a real trace ring). Per-kind counters are exact over
// the whole run regardless of ring wrap.
type Buffer struct {
	recs    []Record
	next    int
	wrapped bool
	counts  [kindCount]uint64
}

// NewBuffer returns a ring holding up to capacity records. Capacity 0
// disables record storage but keeps counters.
func NewBuffer(capacity int) *Buffer {
	b := &Buffer{}
	if capacity > 0 {
		b.recs = make([]Record, capacity)
	}
	return b
}

// Emit appends one record.
func (b *Buffer) Emit(r Record) {
	if int(r.Kind) < len(b.counts) {
		b.counts[r.Kind]++
	}
	if len(b.recs) == 0 {
		return
	}
	b.recs[b.next] = r
	b.next++
	if b.next == len(b.recs) {
		b.next = 0
		b.wrapped = true
	}
}

// Count returns the exact number of records emitted with the given kind.
func (b *Buffer) Count(k Kind) uint64 {
	if int(k) >= len(b.counts) {
		return 0
	}
	return b.counts[k]
}

// Len returns the number of records currently held in the ring.
func (b *Buffer) Len() int {
	if b.wrapped {
		return len(b.recs)
	}
	return b.next
}

// Records returns the held records oldest-first.
func (b *Buffer) Records() []Record {
	if !b.wrapped {
		out := make([]Record, b.next)
		copy(out, b.recs[:b.next])
		return out
	}
	out := make([]Record, 0, len(b.recs))
	out = append(out, b.recs[b.next:]...)
	out = append(out, b.recs[:b.next]...)
	return out
}

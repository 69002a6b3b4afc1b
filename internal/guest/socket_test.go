package guest

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// TestSocketQueueFIFO: the receive queue stays FIFO across drains, refills
// and a standing backlog, Len counts what is queued, and a backlog that
// never drains does not grow the backing array without bound.
func TestSocketQueueFIFO(t *testing.T) {
	s := &Socket{}
	var next, want uint64
	push := func(n int) {
		for ; n > 0; n-- {
			s.deliver(Packet{Seq: next})
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if p := s.pop(); p.Seq != want {
				t.Fatalf("popped seq %d, want %d", p.Seq, want)
			}
			want++
		}
		if got := uint64(s.Len()); got != next-want {
			t.Fatalf("Len %d, want %d", got, next-want)
		}
	}
	push(5)
	pop(5) // drain
	push(3)
	pop(1)
	push(6) // refill over a consumed prefix
	pop(2)
	for i := 0; i < 1000; i++ { // standing backlog of 6
		push(1)
		pop(1)
	}
	if c := cap(s.buf); c > 16 {
		t.Fatalf("backing array grew to %d for a backlog of %d", c, s.Len())
	}
	pop(s.Len())
	if s.Delivered != next {
		t.Fatalf("Delivered %d, want %d", s.Delivered, next)
	}
}

// reuseNIC hands received packets out of one reused buffer.
type reuseNIC struct{ ring, out []Packet }

func (n *reuseNIC) Fetch(max int) []Packet {
	k := min(max, len(n.ring))
	n.out = append(n.out[:0], n.ring[:k]...)
	n.ring = n.ring[:copy(n.ring, n.ring[k:])]
	return n.out
}

func (n *reuseNIC) Transmit(bytes int, now simtime.Time) {}

// TestSocketDeliverRecvAllocFree: at steady state a network interrupt that
// delivers packets to a socket and the receiver's OpRecv completions that
// consume them allocate nothing.
func TestSocketDeliverRecvAllocFree(t *testing.T) {
	clock, h, k := boot(t, 1, 1)
	nic := &reuseNIC{}
	k.AttachNIC(nic)
	sock := k.NewSocket(0)
	var sent, consumed uint64
	sock.OnAppConsume = func(p Packet, now simtime.Time) {
		if p.Seq != consumed {
			t.Fatalf("consumed seq %d, want %d", p.Seq, consumed)
		}
		consumed++
	}
	k.NewThread(0, "server", &loopProg{op: Op{Kind: OpRecv, Sock: sock}})
	h.Start()
	k.StartAll()
	clock.RunUntil(simtime.Millisecond) // server blocks on the empty socket
	cycle := func() {
		for i := 0; i < 3; i++ {
			nic.ring = append(nic.ring, Packet{Seq: sent, Bytes: 1500})
			sent++
		}
		h.InjectPIRQ(k.Dom, hv.VecNet, 0)
		clock.RunUntil(clock.Now() + simtime.Millisecond)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("deliver/recv cycle: %v allocs/op, want 0", n)
	}
	if consumed != sent || sock.Len() != 0 {
		t.Fatalf("consumed %d of %d sent, %d still queued", consumed, sent, sock.Len())
	}
}

package workload

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/vdisk"
)

func newVM(t testing.TB, pcpus, vcpus int) (*simtime.Clock, *hv.Hypervisor, *guest.Kernel) {
	t.Helper()
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = pcpus
	h := hv.New(clock, cfg)
	k := guest.NewKernel(h, "vm", vcpus, ksym.Generate(1), guest.DefaultParams())
	k.AttachDisk(vdisk.New(clock, 99))
	return clock, h, k
}

func TestCatalogComplete(t *testing.T) {
	want := []string{
		"blackscholes", "bodytrack", "bzip2", "dedup", "exim", "fileserver",
		"gameserver", "gmake", "hog", "lookbusy", "memclone", "perlbench",
		"psearchy", "raytrace", "sjeng", "streamcluster", "swaptions", "vips",
	}
	got := Catalog()
	if len(got) != len(want) {
		t.Fatalf("catalog %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("catalog %v, want %v", got, want)
		}
	}
}

func TestUnknownAppErrors(t *testing.T) {
	_, _, k := newVM(t, 2, 2)
	if _, err := New("notathing", k, 1); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestKnown(t *testing.T) {
	if Known("nope") {
		t.Fatal("Known accepted an unregistered app")
	}
	if !Known("exim") {
		t.Fatal("Known rejected a registered app")
	}
}

// mustNew is the test-local helper replacing the removed panicking
// constructor: constructor failures are now returned errors.
func mustNew(t *testing.T, name string, k *guest.Kernel, seed uint64) *App {
	t.Helper()
	a, err := New(name, k, seed)
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return a
}

func TestEveryAppMakesProgressSolo(t *testing.T) {
	for _, name := range Catalog() {
		name := name
		t.Run(name, func(t *testing.T) {
			clock, h, k := newVM(t, 4, 4)
			app := mustNew(t, name, k, 42)
			h.Start()
			k.StartAll()
			clock.RunUntil(500 * simtime.Millisecond)
			if app.Units() == 0 {
				t.Fatalf("%s completed no work units", name)
			}
		})
	}
}

func TestDeterministicUnits(t *testing.T) {
	run := func() uint64 {
		clock, h, k := newVM(t, 4, 4)
		app := mustNew(t, "exim", k, 7)
		h.Start()
		k.StartAll()
		clock.RunUntil(500 * simtime.Millisecond)
		return app.Units()
	}
	a, b := run(), run()
	if a != b || a == 0 {
		t.Fatalf("nondeterministic units: %d vs %d", a, b)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	run := func(seed uint64) uint64 {
		clock, h, k := newVM(t, 2, 2)
		app := mustNew(t, "gmake", k, seed)
		h.Start()
		k.StartAll()
		clock.RunUntil(200 * simtime.Millisecond)
		return app.Units()
	}
	if run(1) == run(2) {
		t.Log("different seeds produced identical unit counts (possible but unlikely)")
	}
}

func TestSingleThreadedSpecUsesOneVCPU(t *testing.T) {
	clock, h, k := newVM(t, 4, 4)
	mustNew(t, "sjeng", k, 1)
	h.Start()
	k.StartAll()
	clock.RunUntil(200 * simtime.Millisecond)
	busy := 0
	for _, vc := range k.VCPUs {
		if vc.HV().RanTotal() > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("sjeng used %d vCPUs, want 1", busy)
	}
}

func TestDedupGeneratesShootdowns(t *testing.T) {
	clock, h, k := newVM(t, 4, 4)
	mustNew(t, "dedup", k, 1)
	h.Start()
	k.StartAll()
	clock.RunUntil(300 * simtime.Millisecond)
	if k.TLBStat.Count() == 0 {
		t.Fatal("dedup issued no TLB shootdowns")
	}
}

func TestEximExercisesLocks(t *testing.T) {
	clock, h, k := newVM(t, 4, 4)
	mustNew(t, "exim", k, 1)
	h.Start()
	k.StartAll()
	clock.RunUntil(300 * simtime.Millisecond)
	for _, class := range []string{"Dentry", "Page allocator", "Runqueue"} {
		if k.LockStat[class] == nil || k.LockStat[class].Count() == 0 {
			t.Fatalf("exim never touched the %s locks", class)
		}
	}
}

func TestSwaptionsStaysInUserMode(t *testing.T) {
	clock, h, k := newVM(t, 2, 2)
	mustNew(t, "swaptions", k, 1)
	h.Start()
	k.StartAll()
	clock.RunUntil(300 * simtime.Millisecond)
	if h.Counters.Value("vipi.sent") != 0 {
		t.Fatal("swaptions sent IPIs")
	}
	if len(k.LockStat) != 0 {
		t.Fatalf("swaptions took kernel locks: %v", k.LockStat)
	}
}

func TestIperfServerCountsUnits(t *testing.T) {
	clock, h, k := newVM(t, 2, 1)
	app := Empty("iperf", k)
	sock := k.NewSocket(0)
	IperfServer(app, 0, sock)
	k.NewThread(0, "lookbusy", guest.ProgramFunc(func(simtime.Time) guest.Op {
		return guest.Op{Kind: guest.OpCompute, Dur: simtime.Millisecond}
	}))
	h.Start()
	k.StartAll()
	clock.RunUntil(simtime.Millisecond)
	// Hand-deliver packets through a fake device path: directly into the
	// socket via the NIC-less deliver helper is internal, so use a tiny
	// in-test NetDevice instead.
	nic := &testNIC{}
	k.AttachNIC(nic)
	nic.ring = append(nic.ring, guest.Packet{Seq: 1, Flow: 0, Bytes: 1500, SentAt: clock.Now()})
	h.InjectPIRQ(k.Dom, hv.VecNet, 0)
	clock.RunUntil(clock.Now() + 10*simtime.Millisecond)
	if app.Units() != 1 {
		t.Fatalf("units=%d", app.Units())
	}
}

type testNIC struct{ ring []guest.Packet }

func (n *testNIC) Fetch(max int) []guest.Packet {
	out := n.ring
	n.ring = nil
	return out
}
func (n *testNIC) Transmit(bytes int, now simtime.Time) {}

func TestCoRunDegradesKernelBoundApps(t *testing.T) {
	// The paper's Table 2 premise: co-running swaptions slows the
	// kernel-bound app far more than a fair 2x.
	solo := func(name string) uint64 {
		clock, h, k := newVM(t, 12, 12)
		app := mustNew(t, name, k, 3)
		h.Start()
		k.StartAll()
		clock.RunUntil(simtime.Second)
		return app.Units()
	}
	corun := func(name string) uint64 {
		clock := simtime.NewClock()
		cfg := hv.DefaultConfig()
		h := hv.New(clock, cfg)
		k1 := guest.NewKernel(h, name, 12, ksym.Generate(1), guest.DefaultParams())
		k2 := guest.NewKernel(h, "swaptions", 12, ksym.Generate(2), guest.DefaultParams())
		app := mustNew(t, name, k1, 3)
		mustNew(t, "swaptions", k2, 4)
		h.Start()
		k1.StartAll()
		k2.StartAll()
		clock.RunUntil(simtime.Second)
		return app.Units()
	}
	// exim collapses well below its fair share; dedup loses at least its
	// fair share (its additional cost shows up as latency, Table 4b).
	limits := map[string]float64{"exim": 0.5, "dedup": 0.55}
	for name, limit := range limits {
		s, c := solo(name), corun(name)
		if c == 0 {
			t.Fatalf("%s made no progress in co-run", name)
		}
		if float64(c) > limit*float64(s) {
			t.Errorf("%s co-run %d vs solo %d — want <= %.2fx", name, c, s, limit)
		}
	}
}

func TestNeedsDisk(t *testing.T) {
	if !NeedsDisk("fileserver") {
		t.Fatal("fileserver must need a disk")
	}
	if NeedsDisk("exim") || NeedsDisk("nope") {
		t.Fatal("spurious disk requirement")
	}
}

// warmPrograms deploys app name into a 4-vCPU test kernel and steps every
// thread's program through enough iterations that its op buffer has reached
// its largest size, returning the programs.
func warmPrograms(tb testing.TB, name string) []guest.Program {
	tb.Helper()
	_, _, k := newVM(tb, 4, 4)
	if _, err := New(name, k, 42); err != nil {
		tb.Fatalf("New(%q): %v", name, err)
	}
	var progs []guest.Program
	for _, th := range k.Threads() {
		p := th.Program()
		for i := 0; i < 2000; i++ {
			p.Next(0)
		}
		progs = append(progs, p)
	}
	return progs
}

// TestCycleProgNextAllocFree: once warm, every catalog application's
// program hands out ops — including the per-iteration rebuild — without
// allocating, because build appends into the reused queue. Each measured
// run makes 16 Next calls, which span at least two iterations of every
// application, so even one allocation per iteration shows as ≥ 1 per run.
func TestCycleProgNextAllocFree(t *testing.T) {
	for _, name := range Catalog() {
		for i, p := range warmPrograms(t, name) {
			n := testing.AllocsPerRun(100, func() {
				for j := 0; j < 16; j++ {
					p.Next(0)
				}
			})
			if n != 0 {
				t.Errorf("%s thread %d: %v allocs per 16 Next calls, want 0", name, i, n)
			}
		}
	}
}

// BenchmarkCycleProgNext measures op generation per application: one Next
// call, amortizing the iteration rebuild over the ops it yields.
func BenchmarkCycleProgNext(b *testing.B) {
	for _, name := range Catalog() {
		b.Run(name, func(b *testing.B) {
			p := warmPrograms(b, name)[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Next(0)
			}
		})
	}
}

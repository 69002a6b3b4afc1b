package experiment

import (
	"fmt"
	"io"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/report"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/vnet"
	"github.com/microslicedcore/microsliced/internal/workload"
)

// I/O experiment parameters (paper §3.3, §6.2: 1 Gbit link, iPerf).
const (
	ioLinkBps   = 1_000_000_000
	ioUDPBytes  = 8192 // iPerf's default UDP datagram size
	ioTCPBytes  = 8192
	ioTCPWindow = 32
	ioWireDelay = 100 * simtime.Microsecond
	// ioRingCap reflects the effective buffering between netback and the
	// iPerf socket (~400 KB), which bounds how much of a scheduling gap
	// can be absorbed without UDP loss.
	ioRingCap = 48
)

// IOMeasure is one iPerf measurement.
type IOMeasure struct {
	Proto    string
	Mbps     float64
	JitterMs float64
	Loss     float64
}

// IOSetup builds the paper's I/O scenario on a 2-pCPU host: VM vm1 hosts
// the iPerf server (proto "udp" or "tcp"); when mixed, a lookbusy thread
// shares vm1's vCPU and a lookbusy VM vm2 shares its pCPU, both vCPUs
// pinned to pCPU 0 (Figure 9b). The read-out is VM("vm1").IPerf.
func IOSetup(proto string, mixed bool, cc core.Config, dur simtime.Duration) Setup {
	s := Setup{
		PCPUs:    2,
		VMs:      []VMSpec{{Name: "vm1", VCPUs: 1, IPerf: proto}},
		Core:     cc,
		Duration: dur,
	}
	if mixed {
		s.VMs[0].App, s.VMs[0].Pins = "lookbusy", []int{0}
		s.VMs = append(s.VMs, VMSpec{Name: "vm2", App: "lookbusy", VCPUs: 1, Seed: 9, Pins: []int{0}})
	}
	return s
}

// buildIPerf composes a VM's iPerf stream: NIC, socket 0 read by an
// iperf-server thread on vCPU 0, and the paced sender, not yet started.
// proto is "udp" or "tcp" (Validate rejects anything else).
func buildIPerf(clock *simtime.Clock, h *hv.Hypervisor, k *guest.Kernel, proto string) (netRig, error) {
	nic := vnet.NewNIC(h, k.Dom, ioRingCap)
	k.AttachNIC(nic)
	sock := k.NewSocket(0)
	workload.IperfServer(workload.Empty("iperf", k), 0, sock)
	rig := netRig{nic: nic, kernel: k}
	var err error
	if proto == "udp" {
		if rig.udp, err = vnet.NewUDPFlow(clock, nic, 0, ioUDPBytes, ioLinkBps); err == nil {
			rig.udp.Attach(sock)
		}
	} else if rig.tcp, err = vnet.NewTCPFlow(clock, nic, 0, ioTCPBytes, ioTCPWindow, ioLinkBps, ioWireDelay); err == nil {
		rig.tcp.Attach(sock)
	}
	return rig, err
}

// startIPerf starts the rig's iPerf sender, if it has one.
func (r *netRig) startIPerf() {
	if r.udp != nil {
		r.udp.Start()
	}
	if r.tcp != nil {
		r.tcp.Start()
	}
}

// ioMeasure reads out the rig's iPerf stream (nil without one).
func (r *netRig) ioMeasure() *IOMeasure {
	switch {
	case r.udp != nil:
		return &IOMeasure{Proto: "udp", Mbps: r.udp.GoodputBps() / 1e6, JitterMs: r.udp.Jitter.PeakMillis(), Loss: r.udp.LossRate()}
	case r.tcp != nil:
		return &IOMeasure{Proto: "tcp", Mbps: r.tcp.GoodputBps() / 1e6, JitterMs: r.tcp.Jitter.PeakMillis()}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Table 4c — iPerf latency and throughput, solo vs mixed co-run
// ---------------------------------------------------------------------------

// Table4cResult reproduces paper Table 4c.
type Table4cResult struct {
	Solo  IOMeasure
	Mixed IOMeasure
}

// Table4c measures iPerf (UDP) jitter and throughput solo vs mixed co-run
// on the vanilla hypervisor.
func Table4c(dur simtime.Duration) (*Table4cResult, error) {
	res, err := RunAll([]Setup{
		IOSetup("udp", false, offConfig(), dur),
		IOSetup("udp", true, offConfig(), dur),
	})
	if err != nil {
		return nil, err
	}
	return &Table4cResult{Solo: *res[0].VM("vm1").IPerf, Mixed: *res[1].VM("vm1").IPerf}, nil
}

// Render implements report.Renderer.
func (r *Table4cResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Table 4c: iPerf latency and throughput, solo vs mixed co-run",
		Columns: []string{"config", "jitter (ms)", "throughput (Mbit/s)", "loss"},
	}
	t.AddRow("solo", fmt.Sprintf("%.4f", r.Solo.JitterMs), fmt.Sprintf("%.1f", r.Solo.Mbps), fmt.Sprintf("%.3f", r.Solo.Loss))
	t.AddRow("mixed co-run", fmt.Sprintf("%.4f", r.Mixed.JitterMs), fmt.Sprintf("%.1f", r.Mixed.Mbps), fmt.Sprintf("%.3f", r.Mixed.Loss))
	t.Notes = append(t.Notes, "paper: solo 0.0043ms / 936.3 Mbit/s; mixed co-run 9.2507ms / 435.6 Mbit/s")
	t.Render(w)
}

// ---------------------------------------------------------------------------
// Figure 9 — mixed co-run I/O with micro-sliced cores
// ---------------------------------------------------------------------------

// Figure9Result reproduces paper Figure 9: TCP/UDP bandwidth and jitter of
// the mixed co-run under the baseline and the micro-sliced scheme.
type Figure9Result struct {
	BaselineTCP IOMeasure
	BaselineUDP IOMeasure
	MicroTCP    IOMeasure
	MicroUDP    IOMeasure
}

// Figure9 runs the mixed-VM I/O comparison. The micro-sliced configuration
// dedicates one micro core (machine has 2 pCPUs; both vCPUs are pinned to
// the other one) with I/O acceleration enabled.
func Figure9(dur simtime.Duration) (*Figure9Result, error) {
	micro := core.StaticConfig(1)
	res, err := RunAll([]Setup{
		IOSetup("tcp", true, offConfig(), dur),
		IOSetup("udp", true, offConfig(), dur),
		IOSetup("tcp", true, micro, dur),
		IOSetup("udp", true, micro, dur),
	})
	if err != nil {
		return nil, err
	}
	m := func(i int) IOMeasure { return *res[i].VM("vm1").IPerf }
	return &Figure9Result{BaselineTCP: m(0), BaselineUDP: m(1), MicroTCP: m(2), MicroUDP: m(3)}, nil
}

// Render implements report.Renderer.
func (r *Figure9Result) Render(w io.Writer) {
	t := report.Table{
		Title:   "Figure 9: mixed co-run I/O performance (iperf+lookbusy vs lookbusy, shared pCPU)",
		Columns: []string{"config", "TCP Mbit/s", "UDP Mbit/s", "UDP jitter (ms)", "UDP loss"},
	}
	t.AddRow("baseline",
		fmt.Sprintf("%.1f", r.BaselineTCP.Mbps),
		fmt.Sprintf("%.1f", r.BaselineUDP.Mbps),
		fmt.Sprintf("%.4f", r.BaselineUDP.JitterMs),
		fmt.Sprintf("%.3f", r.BaselineUDP.Loss))
	t.AddRow("u-sliced",
		fmt.Sprintf("%.1f", r.MicroTCP.Mbps),
		fmt.Sprintf("%.1f", r.MicroUDP.Mbps),
		fmt.Sprintf("%.4f", r.MicroUDP.JitterMs),
		fmt.Sprintf("%.3f", r.MicroUDP.Loss))
	t.Notes = append(t.Notes, "paper: TCP bandwidth improves and jitter drops from >8ms to near 0 under u-slicing")
	t.Render(w)
}

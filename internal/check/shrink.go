package check

// Shrink greedily minimizes a failing scenario: it repeatedly tries the
// candidate transformations in order (most aggressive first) and commits
// the first one that still fails, restarting from the smaller scenario,
// until no transformation reproduces the failure or budget evaluations of
// fails have been spent. Candidates whose Setup fails Validate are skipped
// unevaluated: they would reproduce a validation error, not the failure.
// fails must be deterministic — with a simulator that is bit-reproducible
// by construction, it is.
func Shrink(sc Scenario, fails func(Scenario) bool, budget int) Scenario {
	cur := sc
	for budget > 0 {
		improved := false
		for _, cand := range shrinkCandidates(cur) {
			if budget <= 0 {
				break
			}
			if s, err := cand.ToSetup(); err != nil || s.Validate() != nil {
				continue
			}
			budget--
			if fails(cand) {
				cur = cand
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return cur
}

// shrinkCandidates proposes strictly simpler variants of sc, ordered so the
// biggest reductions (dropping whole VMs, disabling faults) are tried
// before dimension halving and flag clearing.
func shrinkCandidates(sc Scenario) []Scenario {
	var out []Scenario
	add := func(f func(*Scenario)) {
		c := sc.clone()
		f(&c)
		out = append(out, c)
	}

	if len(sc.VMs) > 1 {
		for i := range sc.VMs {
			i := i
			add(func(c *Scenario) {
				c.VMs = append(c.VMs[:i], c.VMs[i+1:]...)
			})
		}
	}
	if sc.Faults != nil {
		add(func(c *Scenario) { c.Faults = nil; c.Recovery = nil })
		if sc.Faults.Storms > 0 {
			add(func(c *Scenario) { c.Faults.Storms = 0 })
		}
		if sc.Faults.PermanentOffPCPUs > 0 {
			add(func(c *Scenario) { c.Faults.PermanentOffPCPUs-- })
		}
		if sc.Faults.LoseIPIs {
			add(func(c *Scenario) { c.Faults.LoseIPIs = false })
		}
	}
	if sc.DurationMs > 5 {
		add(func(c *Scenario) { c.DurationMs /= 2 })
	}
	for i := range sc.VMs {
		i := i
		if sc.VMs[i].VCPUs > 1 {
			add(func(c *Scenario) {
				c.VMs[i].VCPUs /= 2
				if len(c.VMs[i].Pins) > c.VMs[i].VCPUs {
					c.VMs[i].Pins = c.VMs[i].Pins[:c.VMs[i].VCPUs]
				}
			})
		}
		if len(sc.VMs[i].Pins) > 0 {
			add(func(c *Scenario) { c.VMs[i].Pins = nil })
		}
		if sc.VMs[i].Weight != 0 {
			add(func(c *Scenario) { c.VMs[i].Weight = 0 })
		}
	}
	if sc.PCPUs > 2 {
		add(func(c *Scenario) { c.PCPUs-- })
	}
	if sc.Mode != "off" {
		add(func(c *Scenario) { c.Mode = "off"; c.StaticCores = 0 })
	}
	if sc.Stagger {
		add(func(c *Scenario) { c.Stagger = false })
	}
	if sc.BoostOff {
		add(func(c *Scenario) { c.BoostOff = false })
	}
	if sc.NoReturnHome {
		add(func(c *Scenario) { c.NoReturnHome = false })
	}
	if sc.MicroRunqLimit != 1 {
		add(func(c *Scenario) { c.MicroRunqLimit = 1 })
	}
	return out
}

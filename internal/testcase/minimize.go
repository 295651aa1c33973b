package testcase

import "encoding/json"

// RunFails is the default minimization oracle: the case's full run
// either errors (deadlock, protocol panic surfaced as an error) or
// flunks the global invariant audit. A case that cannot even build
// does not count as failing — minimization must preserve the original
// failure, not invent configuration errors.
func RunFails(c *Case) bool {
	m, w, err := c.build()
	if err != nil {
		return false
	}
	if _, err := m.Run(w); err != nil {
		return true
	}
	return m.CheckInvariants() != nil
}

// Minimize greedily shrinks a failing case while fails keeps holding:
// fewer chaos ops, fewer nodes and procs, knobs switched off, the
// fault plan and policy simplified. Each accepted step reruns the
// oracle, so the result is a (locally) minimal case with the same
// failure. Expectations and any embedded checkpoint are dropped — they
// describe the original case, not the shrunken one. If the input does
// not fail, it is returned (stripped) unchanged.
func Minimize(c *Case, fails func(*Case) bool) *Case {
	cur := clone(c)
	cur.Checkpoint, cur.Expect, cur.CheckpointAt = nil, nil, 0
	if !fails(cur) {
		return cur
	}
	if cur.App == ChaosName && cur.Ops == 0 {
		cur.Ops = 1500 // make the chaos default explicit so it can shrink
	}
	try := func(mut func(*Case)) bool {
		cand := clone(cur)
		mut(cand)
		if fails(cand) {
			cur = cand
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for cur.Ops > 50 && try(func(c *Case) { c.Ops /= 2 }) {
			changed = true
		}
		if cur.Faults != "" && try(func(c *Case) { c.Faults = "" }) {
			changed = true
		}
		if cur.SampleEvery != 0 && try(func(c *Case) { c.SampleEvery = 0 }) {
			changed = true
		}
		if cur.PITAccess != 0 && try(func(c *Case) { c.PITAccess = 0 }) {
			changed = true
		}
		if cur.HardwareSync && try(func(c *Case) { c.HardwareSync = false }) {
			changed = true
		}
		if cur.Caps != nil && try(func(c *Case) { c.Caps = nil }) {
			changed = true
		}
		if cur.Policy != "SCOMA" && try(func(c *Case) { c.Policy = "SCOMA"; c.DynBothThreshold = 0 }) {
			changed = true
		}
		if nodes(cur) > 2 && try(func(c *Case) { c.Nodes = 2 }) {
			changed = true
		}
		if procs(cur) > 1 && try(func(c *Case) { c.Procs = 1 }) {
			changed = true
		}
	}
	return cur
}

func nodes(c *Case) int {
	if c.Nodes > 0 {
		return c.Nodes
	}
	if cfg, err := c.Config(); err == nil {
		return cfg.Nodes
	}
	return 0
}

func procs(c *Case) int {
	if c.Procs > 0 {
		return c.Procs
	}
	if cfg, err := c.Config(); err == nil {
		return cfg.Node.Procs
	}
	return 0
}

// clone deep-copies a case through its JSON form (the same encoding
// the file format uses, so nothing is lost).
func clone(c *Case) *Case {
	raw, err := json.Marshal(c)
	if err != nil {
		panic(err) // Case is marshalable by construction
	}
	var out Case
	if err := json.Unmarshal(raw, &out); err != nil {
		panic(err)
	}
	return &out
}

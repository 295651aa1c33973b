package workloads

import (
	"testing"

	"prism"
)

// runMini runs a workload at MiniSize on a small machine.
func runMini(t *testing.T, name string, polName string) (prism.Results, prism.Workload) {
	t.Helper()
	cfg := ConfigForSize(MiniSize)
	cfg.Policy = prism.MustPolicy(polName)
	m, err := prism.New(cfg)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	w, err := NewWorkload(name, MiniSize, nil)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	res, err := m.Run(w)
	if err != nil {
		t.Fatalf("%s run: %v", name, err)
	}
	return res, w
}

func TestAllWorkloadsRunSCOMA(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			res, _ := runMini(t, name, "SCOMA")
			if res.Cycles == 0 {
				t.Error("no measured cycles")
			}
			if res.Refs == 0 {
				t.Error("no references")
			}
			if res.ClientPageOuts != 0 {
				t.Errorf("SCOMA paged out %d times", res.ClientPageOuts)
			}
		})
	}
}

func TestAllWorkloadsRunLANUMA(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			res, _ := runMini(t, name, "LANUMA")
			if res.ImagFrames == 0 {
				t.Error("LANUMA allocated no imaginary frames")
			}
			_ = res
		})
	}
}

func TestWorkloadFunctionalResults(t *testing.T) {
	checks := map[string]func(prism.Workload) bool{
		"fft":       func(w prism.Workload) bool { return w.(*FFT).Verify() },
		"lu":        func(w prism.Workload) bool { return w.(*LU).ResidualOK() },
		"radix":     func(w prism.Workload) bool { return w.(*Radix).Sorted() },
		"ocean":     func(w prism.Workload) bool { return w.(*Ocean).Finite() },
		"barnes":    func(w prism.Workload) bool { return w.(*Barnes).Energyish() },
		"mp3d":      func(w prism.Workload) bool { return w.(*MP3D).Conserved() },
		"water-nsq": func(w prism.Workload) bool { return w.(*WaterNsq).Finite() },
		"water-spa": func(w prism.Workload) bool { return w.(*WaterSpa).Finite() },
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			_, w := runMini(t, name, "SCOMA")
			if !checks[name](w) {
				t.Errorf("%s functional check failed", name)
			}
		})
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	for _, name := range []string{"fft", "mp3d"} {
		a, _ := runMini(t, name, "Dyn-LRU")
		b, _ := runMini(t, name, "Dyn-LRU")
		if a.Cycles != b.Cycles || a.RemoteMisses != b.RemoteMisses {
			t.Errorf("%s nondeterministic: %d/%d vs %d/%d cycles/misses",
				name, a.Cycles, a.RemoteMisses, b.Cycles, b.RemoteMisses)
		}
	}
}

func TestByNameRejectsUnknown(t *testing.T) {
	if _, err := NewWorkload("nosuch", MiniSize, nil); err == nil {
		t.Error("accepted unknown workload")
	}
}

func TestSizesDiffer(t *testing.T) {
	small := NewFFT(MiniSize)
	big := NewFFT(PaperSize)
	if small.n >= big.n {
		t.Errorf("mini FFT %d !< paper %d", small.n, big.n)
	}
	if NewRadix(PaperSize).n != 1<<20 {
		t.Error("paper radix size is not 1M keys")
	}
	if NewBarnes(PaperSize).n != 8<<10 {
		t.Error("paper barnes size is not 8K particles")
	}
	if NewLU(PaperSize).n != 512 || NewLU(PaperSize).b != 16 {
		t.Error("paper LU is not 512x512 with 16x16 blocks")
	}
	if NewOcean(PaperSize).dim != 258 {
		t.Error("paper ocean is not 258x258")
	}
	if NewMP3D(PaperSize).n != 20000 {
		t.Error("paper mp3d is not 20000 particles")
	}
	if NewWaterNsq(PaperSize).n != 512 || NewWaterSpa(PaperSize).n != 512 {
		t.Error("paper water is not 512 molecules")
	}
}

func TestSynthRuns(t *testing.T) {
	cfg := ConfigForSize(MiniSize)
	cfg.Policy = prism.MustPolicy("Dyn-LRU")
	m, err := prism.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := DefaultSynthConfig()
	sc.Iters = 2
	sc.OpsPerIter = 500
	res, err := m.Run(NewSynth(sc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs == 0 || res.Cycles == 0 {
		t.Fatal("synth produced no work")
	}
}

func TestSynthBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad synth config did not panic")
		}
	}()
	NewSynth(SynthConfig{})
}

func TestSynthKnobsShiftBehavior(t *testing.T) {
	run := func(writePct int) prism.Results {
		cfg := ConfigForSize(MiniSize)
		cfg.Policy = prism.MustPolicy("SCOMA")
		m, _ := prism.New(cfg)
		sc := DefaultSynthConfig()
		sc.Iters = 2
		sc.OpsPerIter = 800
		sc.WritePct = writePct
		sc.RandomPct = 50
		res, err := m.Run(NewSynth(sc))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ro := run(0)
	wr := run(90)
	// Heavier writing on a shared hot set must cost more invalidation
	// traffic (upgrades + invs), hence more cycles.
	if wr.Upgrades+wr.InvsSent <= ro.Upgrades+ro.InvsSent {
		t.Errorf("write-heavy synth did not raise coherence traffic: %d vs %d",
			wr.Upgrades+wr.InvsSent, ro.Upgrades+ro.InvsSent)
	}
}

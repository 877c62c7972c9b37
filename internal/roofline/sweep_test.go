package roofline

import (
	"math"
	"testing"

	"repro/internal/machine"
)

func TestCurveShape(t *testing.T) {
	m := machine.PaperModel() // ridge at 10 / (32/8) = 2.5
	pts := Curve(m, 0.01, 100, 40)
	if len(pts) != 40 {
		t.Fatalf("points = %d", len(pts))
	}
	// Monotonically non-decreasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].GFLOPS < pts[i-1].GFLOPS-1e-9 {
			t.Errorf("curve not monotone at %d: %.3f -> %.3f", i, pts[i-1].GFLOPS, pts[i].GFLOPS)
		}
	}
	// Bandwidth-bound start: GFLOPS = AI * total bandwidth.
	first := pts[0]
	if want := first.AI * m.TotalBandwidth(); math.Abs(first.GFLOPS-want) > want*0.01 {
		t.Errorf("low-AI point %.4f GFLOPS, want %.4f (bandwidth-bound)", first.GFLOPS, want)
	}
	// Compute plateau at the end.
	last := pts[len(pts)-1]
	if math.Abs(last.GFLOPS-m.PeakGFLOPS()) > 1e-6 {
		t.Errorf("high-AI point %.3f GFLOPS, want peak %.0f", last.GFLOPS, m.PeakGFLOPS())
	}
}

func TestCurveDefaults(t *testing.T) {
	m := machine.PaperModel()
	pts := Curve(m, -1, 0, 0) // all defaults kick in
	if len(pts) != 2 {
		t.Errorf("default points = %d, want 2", len(pts))
	}
}

func TestRidge(t *testing.T) {
	if got := Ridge(machine.PaperModel()); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("ridge = %g, want 2.5", got)
	}
	// SkylakeQuad: 0.29 / (100/20) = 0.058.
	if got := Ridge(machine.SkylakeQuad()); math.Abs(got-0.058) > 1e-12 {
		t.Errorf("ridge = %g, want 0.058", got)
	}
}

func TestRidgeSplitsCurve(t *testing.T) {
	// Below the ridge the machine is bandwidth-bound, above it
	// compute-bound; verify on both sides.
	m := machine.PaperModel()
	ridge := Ridge(m)
	below := Curve(m, ridge/4, ridge/4, 2)[0]
	above := Curve(m, ridge*4, ridge*4, 2)[0]
	if math.Abs(below.GFLOPS-below.AI*m.TotalBandwidth()) > 1e-6 {
		t.Error("below ridge should be bandwidth-bound")
	}
	if math.Abs(above.GFLOPS-m.PeakGFLOPS()) > 1e-6 {
		t.Error("above ridge should be at peak")
	}
}

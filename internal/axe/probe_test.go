package axe

import (
	"math"
	"testing"

	"redcane/internal/approx"
	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

func TestProbeBackendInert(t *testing.T) {
	// The probe decorator must pass the wrapped backend's outputs through
	// bit-for-bit — including when it makes the quantized kernels count
	// overflows — while still accumulating stats.
	net := buildRoutingNet(31)
	x := randT(32, 3, 1, 6, 6)
	for _, be := range []caps.Backend{caps.Float{}, QuantExact{Bits: 8}} {
		ref := net.ForwardExec(x, noise.None{}, be)
		rec := caps.NewProbeRecorder()
		got := net.ForwardExec(x, noise.None{}, caps.NewProbeBackend(be, rec))
		for i := range ref.Data {
			if ref.Data[i] != got.Data[i] {
				t.Fatalf("%s: probed forward diverges at %d: %g vs %g",
					be.Name(), i, got.Data[i], ref.Data[i])
			}
		}
		layers := rec.Layers()
		if len(layers) == 0 {
			t.Fatalf("%s: no layers recorded", be.Name())
		}
		for _, l := range layers {
			if l.Count == 0 || l.Min > l.Max {
				t.Fatalf("%s: bad stats %+v", be.Name(), l)
			}
			if l.RefCount != 0 {
				t.Fatalf("%s: reference stats without a reference pass: %+v", be.Name(), l)
			}
		}
	}
}

func TestProbeRecorderSQNRAgainstReference(t *testing.T) {
	// Reference pass on the exact baseline, observation pass on a crude
	// approximate design: the approximated layer must show a finite
	// positive SQNR and full reference coverage.
	net := buildRoutingNet(33)
	x := randT(34, 3, 1, 6, 6)
	be, err := NewQuantApprox(8, map[string]approx.Multiplier{
		"ClassCaps": approx.OperandTrunc{ABits: 4, BBits: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	refBe := be.ExactBaseline()
	if refBe.Name() != (QuantExact{Bits: 8}).Name() {
		t.Fatalf("baseline = %s", refBe.Name())
	}

	rec := caps.NewProbeRecorder()
	rec.StartReference()
	net.ForwardExec(x, noise.None{}, caps.NewProbeBackend(refBe, rec))
	rec.StartObserve()
	net.ForwardExec(x, noise.None{}, caps.NewProbeBackend(be, rec))

	var class *caps.ProbeLayerStats
	for i, l := range rec.Layers() {
		if l.RefCount != l.Count || l.RefCount == 0 {
			t.Fatalf("layer %s: ref coverage %d of %d", l.Layer, l.RefCount, l.Count)
		}
		if l.Layer == "ClassCaps" {
			ls := rec.Layers()[i]
			class = &ls
		}
	}
	if class == nil {
		t.Fatal("ClassCaps not probed")
	}
	if class.ErrSq == 0 {
		t.Fatal("approximated layer shows no error vs the exact baseline")
	}
	db := class.SQNRdB()
	if db <= -caps.SQNRClampDB || db >= caps.SQNRClampDB {
		t.Fatalf("ClassCaps SQNR = %g dB, want finite", db)
	}
	// The shared exact prefix is bit-identical to the reference, so the
	// first layer reports "no measurable error".
	first := rec.Layers()[0]
	if first.SQNRdB() != caps.SQNRClampDB || first.ErrSq != 0 {
		t.Fatalf("exact-prefix layer %s: SQNR %g, ErrSq %g", first.Layer, first.SQNRdB(), first.ErrSq)
	}
}

func TestProbeOverflowCounting(t *testing.T) {
	// At 2-bit operands the modeled accumulator holds 2·2+8 = 12 bits
	// (satMax 2047). A convolution with 288 max-code products of 9 sums
	// to ~2592, so overflows must be counted — and the outputs must stay
	// bit-identical to the unprobed run (the Go kernels never wrap; the
	// counter is diagnostic).
	// One zero pins the quantization range's bottom; every other element
	// sits at the top, so nearly all codes are the 2-bit maximum (3) and
	// nearly every product contributes 9 to the code-domain sum.
	x := tensor.New(1, 32, 5, 5)
	for i := range x.Data {
		x.Data[i] = 1
	}
	x.Data[0] = 0
	w := tensor.New(4, 32, 3, 3)
	for i := range w.Data {
		w.Data[i] = 1
	}
	w.Data[0] = 0
	be := QuantExact{Bits: 2}
	// The nonlinearity decorator embeds the backend it wraps, kernels
	// included, so probing it counts the same overflows as probing the
	// backend directly; the probe also adds them to a caller's tally.
	nl := caps.Nonlinearity{SoftmaxName: "x", SoftmaxFn: tensor.Softmax}
	var want int64
	for _, inner := range []caps.Backend{be, caps.WithNonlinearity(be, nl)} {
		ref := inner.Conv2D("conv", x, w, nil, 1, 0, nil, nil)
		rec := caps.NewProbeRecorder()
		var tally int64
		got := caps.NewProbeBackend(inner, rec).Conv2D("conv", x, w, nil, 1, 0, nil, &tally)
		for i := range ref.Data {
			if ref.Data[i] != got.Data[i] {
				t.Fatalf("%s: overflow counting changed the outputs", inner.Name())
			}
		}
		layers := rec.Layers()
		if len(layers) != 1 || layers[0].Overflow == 0 {
			t.Fatalf("%s: overflow not counted: %+v", inner.Name(), layers)
		}
		if layers[0].Overflow > layers[0].Count {
			t.Fatalf("%s: overflow %d exceeds element count %d", inner.Name(), layers[0].Overflow, layers[0].Count)
		}
		if want == 0 {
			want = layers[0].Overflow
		}
		if layers[0].Overflow != want || tally != want {
			t.Fatalf("%s: counted %d overflows (caller tally %d), want %d", inner.Name(), layers[0].Overflow, tally, want)
		}
	}

	// The model grants 8 bits (256×) of headroom over a full-scale
	// product; 16·3·3 = 144 accumulation terms fit, so the same data
	// with half the channels must not overflow.
	xs := tensor.NewFrom(x.Data[:16*25], 1, 16, 5, 5)
	ws := tensor.NewFrom(w.Data[:4*16*9], 4, 16, 3, 3)
	recS := caps.NewProbeRecorder()
	caps.NewProbeBackend(be, recS).Conv2D("conv", xs, ws, nil, 1, 0, nil, nil)
	if recS.Layers()[0].Overflow != 0 {
		t.Fatalf("shallow conv reported overflow: %+v", recS.Layers()[0])
	}
}

func TestExactBaselineIdentities(t *testing.T) {
	// QuantExact is its own baseline (stats-only probes); QuantApprox's
	// baseline is QuantExact at the same wordlength.
	qe := QuantExact{Bits: 6}
	if qe.ExactBaseline() != caps.Backend(qe) {
		t.Fatal("QuantExact baseline is not itself")
	}
	qa, err := NewQuantApprox(6, map[string]approx.Multiplier{
		"L": approx.OperandTrunc{ABits: 4, BBits: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, ok := qa.ExactBaseline().(QuantExact)
	if !ok || base.Bits != 6 {
		t.Fatalf("QuantApprox baseline = %#v", qa.ExactBaseline())
	}
}

func TestProbeStatsMoments(t *testing.T) {
	// Mean/variance/merge arithmetic on a known distribution.
	a := caps.ProbeLayerStats{Layer: "l", Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range []float64{1, 2, 3} {
		a.Count++
		a.Min = math.Min(a.Min, v)
		a.Max = math.Max(a.Max, v)
		a.Sum += v
		a.SumSq += v * v
	}
	if a.Mean() != 2 {
		t.Fatalf("mean = %g", a.Mean())
	}
	if got := a.Variance(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("variance = %g", got)
	}
	b := caps.ProbeLayerStats{Layer: "l", Min: 5, Max: 9, Count: 2, Sum: 14, SumSq: 106}
	a.MergeFrom(b)
	if a.Count != 5 || a.Min != 1 || a.Max != 9 || a.Sum != 20 {
		t.Fatalf("merged = %+v", a)
	}
	// SQNR edge cases: no reference, zero error, zero reference energy.
	if (caps.ProbeLayerStats{}).SQNRdB() != 0 {
		t.Fatal("SQNR without reference must be 0")
	}
	if (caps.ProbeLayerStats{RefCount: 1, RefSq: 4}).SQNRdB() != caps.SQNRClampDB {
		t.Fatal("zero-error SQNR must clamp high")
	}
	if (caps.ProbeLayerStats{RefCount: 1, ErrSq: 4}).SQNRdB() != -caps.SQNRClampDB {
		t.Fatal("zero-signal SQNR must clamp low")
	}
}

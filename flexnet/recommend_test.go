package flexnet

import (
	"math"
	"testing"
	"time"
)

func TestRecommendParamsFloors(t *testing.T) {
	cases := []struct {
		floor float64
		f     float64
		minK  int
	}{
		{0.25, 0.2, 4}, // ℓ ≥ 4 honest → k ≥ 4 at f=0.2 (ceil(4·0.8)=4)
		{0.2, 0.0, 5},  // ℓ ≥ 5 honest, nobody corrupted → k = 5
		{0.1, 0.5, 19}, // ℓ ≥ 10 honest at f=0.5 → k ≥ 19 (ceil(19·0.5)=10)
	}
	for _, c := range cases {
		rec, err := RecommendParams(AdvisorInput{TargetFloor: c.floor, AdversaryFraction: c.f})
		if err != nil {
			t.Fatal(err)
		}
		if rec.K < c.minK {
			t.Errorf("floor %v f %v: K = %d, want ≥ %d", c.floor, c.f, rec.K, c.minK)
		}
		if rec.PredictedFloor > c.floor+1e-9 {
			t.Errorf("floor %v: predicted %v exceeds target", c.floor, rec.PredictedFloor)
		}
		// Check the floor formula directly.
		honest := int(math.Ceil(float64(rec.K) * (1 - c.f)))
		if got := 1 / float64(honest); math.Abs(got-rec.PredictedFloor) > 1e-9 {
			t.Errorf("PredictedFloor = %v, formula gives %v", rec.PredictedFloor, got)
		}
	}
}

func TestRecommendParamsCoverage(t *testing.T) {
	rec, err := RecommendParams(AdvisorInput{N: 1000, Degree: 8, CoverFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.PredictedBallSize < 100 {
		t.Errorf("ball %d below 10%% of 1000", rec.PredictedBallSize)
	}
	// d should be minimal: the next smaller ball must be under target.
	if rec.D > 1 && ballSizeOn(8, rec.D-1) >= 100 {
		t.Errorf("D = %d not minimal", rec.D)
	}
	if rec.PredictedLatency <= 0 || rec.PredictedLatency > time.Minute {
		t.Errorf("implausible latency %v", rec.PredictedLatency)
	}
	if rec.PredictedPhase1MsgsPerRound != 3*rec.K*(rec.K-1) {
		t.Errorf("phase-1 cost %d != 3k(k−1)", rec.PredictedPhase1MsgsPerRound)
	}
}

func TestRecommendParamsValidation(t *testing.T) {
	// NaN passes naive `x < 0 || x >= 1` range checks, so each float
	// field is probed with it alongside the out-of-range values.
	cases := []struct {
		name string
		in   AdvisorInput
	}{
		{"TargetFloor > 1", AdvisorInput{TargetFloor: 1.5}},
		{"NaN TargetFloor", AdvisorInput{TargetFloor: math.NaN()}},
		{"negative AdversaryFraction", AdvisorInput{TargetFloor: 0.2, AdversaryFraction: -0.1}},
		{"NaN AdversaryFraction", AdvisorInput{TargetFloor: 0.2, AdversaryFraction: math.NaN()}},
		{"LossRate = 1", AdvisorInput{LossRate: 1.0}},
		{"negative LossRate", AdvisorInput{LossRate: -0.1}},
		{"NaN LossRate", AdvisorInput{TargetFloor: 0.2, LossRate: math.NaN()}},
		{"negative LatencyMs", AdvisorInput{TargetFloor: 0.2, LatencyMs: -5}},
		{"NaN SustainedRate", AdvisorInput{TargetFloor: 0.2, SustainedRate: math.NaN()}},
	}
	for _, c := range cases {
		if _, err := RecommendParams(c.in); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestRecommendParamsLoss is the table-driven check of the loss-aware
// advisor: the effective degree Degree·(1−loss) drives the ball (and
// hence d), and the per-hop flood latency degrades by the 1/(1−loss)
// retransmission factor. Zero loss must reproduce the lossless
// recommendation exactly.
func TestRecommendParamsLoss(t *testing.T) {
	base := AdvisorInput{N: 1000, Degree: 8, CoverFraction: 0.1}
	cases := []struct {
		loss    float64
		wantDeg int // effective degree the plan must use
	}{
		{0, 8},
		{0.05, 7}, // 8·0.95 = 7.6 → 7
		{0.25, 6}, // 8·0.75 = 6
		{0.5, 4},  // 8·0.5 = 4
		{0.95, 2}, // floor clamps at the line graph
	}
	var lossless *Recommendation
	prev := time.Duration(0)
	prevD := 0
	for _, c := range cases {
		in := base
		in.LossRate = c.loss
		rec, err := RecommendParams(in)
		if err != nil {
			t.Fatalf("loss %v: %v", c.loss, err)
		}
		// d minimal on the effective-degree tree, and the ball read off
		// the same tree.
		if rec.PredictedBallSize != ballSizeOn(c.wantDeg, rec.D) {
			t.Errorf("loss %v: ball %d not computed on effective degree %d",
				c.loss, rec.PredictedBallSize, c.wantDeg)
		}
		if rec.PredictedBallSize < 100 {
			t.Errorf("loss %v: ball %d misses the 10%% cover target", c.loss, rec.PredictedBallSize)
		}
		if rec.D > 1 && ballSizeOn(c.wantDeg, rec.D-1) >= 100 {
			t.Errorf("loss %v: D = %d not minimal", c.loss, rec.D)
		}
		// Degradation is monotone: more loss never yields a faster plan
		// or a shallower diffusion.
		if rec.PredictedLatency < prev {
			t.Errorf("loss %v: latency %v improved on %v at lower loss", c.loss, rec.PredictedLatency, prev)
		}
		if rec.D < prevD {
			t.Errorf("loss %v: D = %d shallower than %d at lower loss", c.loss, rec.D, prevD)
		}
		prev, prevD = rec.PredictedLatency, rec.D
		if c.loss == 0 {
			lossless = rec
		}
		// Loss must not touch the privacy side of the plan.
		if rec.K != lossless.K || rec.PredictedFloor != lossless.PredictedFloor {
			t.Errorf("loss %v: privacy parameters drifted (k %d, floor %v)", c.loss, rec.K, rec.PredictedFloor)
		}
	}
	// Spot-check the retransmission factor: at 50% loss the flood term
	// doubles per hop, so with intervals zeroed out the latency is
	// exactly floodHops·hop·2 ... asserted via the lossless ratio on
	// the flood-only configuration.
	floodOnly := AdvisorInput{N: 1000, Degree: 8, CoverFraction: 0.1,
		DCInterval: time.Nanosecond, ADInterval: time.Nanosecond, LatencyMs: 100}
	clean, err := RecommendParams(floodOnly)
	if err != nil {
		t.Fatal(err)
	}
	floodOnly.LossRate = 0.5
	lossy, err := RecommendParams(floodOnly)
	if err != nil {
		t.Fatal(err)
	}
	// Effective degree halves (8→4), so hops go from ceil(log7 1000)=4
	// to ceil(log3 1000)=7, each at double cost: 1400ms vs 400ms.
	wantClean := 4 * 100 * time.Millisecond
	wantLossy := 7 * 200 * time.Millisecond
	round := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	if round(clean.PredictedLatency) != wantClean {
		t.Errorf("clean flood latency %v, want %v", round(clean.PredictedLatency), wantClean)
	}
	if round(lossy.PredictedLatency) != wantLossy {
		t.Errorf("lossy flood latency %v, want %v", round(lossy.PredictedLatency), wantLossy)
	}
}

func TestBallSizeOnMatchesLineAndTree(t *testing.T) {
	if got := ballSizeOn(2, 5); got != 10 {
		t.Errorf("line ball = %d, want 10", got)
	}
	if got := ballSizeOn(3, 2); got != 9 {
		t.Errorf("tree ball = %d, want 9", got)
	}
	if got := ballSizeOn(8, 0); got != 0 {
		t.Errorf("zero-radius ball = %d", got)
	}
}

// TestRecommendParamsSustainedRate is the table-driven check of the
// rate-aware advisor: zero rate reproduces the classic plan exactly,
// moderate utilization (ρ ≤ 0.5) costs latency only via the 1/(1−ρ)
// queueing factor, high utilization also thins the usable fanout
// (deepening d), and offered load at or above LinkCapacity is rejected.
func TestRecommendParamsSustainedRate(t *testing.T) {
	base := AdvisorInput{N: 1000, Degree: 8, CoverFraction: 0.1}
	classic, err := RecommendParams(base)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		rate, cap float64
		wantRho   float64
		wantDeg   int // effective degree the plan must use
	}{
		{"zero rate unchanged", 0, 0, 0, 8},
		{"moderate load latency only", 250, 1000, 0.25, 8},
		{"half load latency only", 500, 1000, 0.5, 8},
		{"heavy load thins fanout", 800, 1000, 0.8, 3}, // 8·2(1−0.8) = 3.2 → 3
		{"default capacity applies", 400, 0, 0.4, 8},   // cap defaults to 1000
	}
	for _, c := range cases {
		in := base
		in.SustainedRate, in.LinkCapacity = c.rate, c.cap
		rec, err := RecommendParams(in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(rec.PredictedUtilization-c.wantRho) > 1e-9 {
			t.Errorf("%s: utilization %v, want %v", c.name, rec.PredictedUtilization, c.wantRho)
		}
		if rec.PredictedBallSize != ballSizeOn(c.wantDeg, rec.D) {
			t.Errorf("%s: ball %d not computed on effective degree %d",
				c.name, rec.PredictedBallSize, c.wantDeg)
		}
		if rec.D > 1 && ballSizeOn(c.wantDeg, rec.D-1) >= 100 {
			t.Errorf("%s: D = %d not minimal", c.name, rec.D)
		}
		// Load must not touch the privacy side of the plan.
		if rec.K != classic.K || rec.PredictedFloor != classic.PredictedFloor {
			t.Errorf("%s: privacy parameters drifted (k %d, floor %v)", c.name, rec.K, rec.PredictedFloor)
		}
		if c.wantRho == 0 {
			if rec.PredictedLatency != classic.PredictedLatency || rec.D != classic.D {
				t.Errorf("%s: zero-rate plan drifted from classic", c.name)
			}
		} else {
			if rec.PredictedLatency <= classic.PredictedLatency {
				t.Errorf("%s: latency %v did not degrade past classic %v",
					c.name, rec.PredictedLatency, classic.PredictedLatency)
			}
		}
		if c.wantDeg == 8 && rec.D != classic.D {
			t.Errorf("%s: moderate load deepened d (%d vs %d)", c.name, rec.D, classic.D)
		}
		if c.wantDeg < 8 && rec.D <= classic.D {
			t.Errorf("%s: heavy load kept d at %d, want deeper than %d", c.name, rec.D, classic.D)
		}
	}
	// Queueing factor spot check: flood-only plan at ρ = 0.5 doubles
	// every hop, so latency doubles against the classic flood.
	floodOnly := AdvisorInput{N: 1000, Degree: 8, CoverFraction: 0.1,
		DCInterval: time.Nanosecond, ADInterval: time.Nanosecond, LatencyMs: 100}
	clean, err := RecommendParams(floodOnly)
	if err != nil {
		t.Fatal(err)
	}
	floodOnly.SustainedRate, floodOnly.LinkCapacity = 500, 1000
	loaded, err := RecommendParams(floodOnly)
	if err != nil {
		t.Fatal(err)
	}
	round := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	if round(loaded.PredictedLatency) != 2*round(clean.PredictedLatency) {
		t.Errorf("ρ=0.5 flood latency %v, want double %v",
			round(loaded.PredictedLatency), round(clean.PredictedLatency))
	}
	// Over capacity: no stable plan.
	for _, rate := range []float64{1000, 1500} {
		in := base
		in.SustainedRate, in.LinkCapacity = rate, 1000
		if _, err := RecommendParams(in); err == nil {
			t.Errorf("rate %v at capacity 1000 accepted", rate)
		}
	}
	if _, err := RecommendParams(AdvisorInput{SustainedRate: -1}); err == nil {
		t.Error("negative SustainedRate accepted")
	}
}

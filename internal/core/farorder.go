package core

import (
	"math"

	"gbpolar/internal/geom"
	"gbpolar/internal/octree"
)

// This file implements the higher-order far-field machinery behind
// Params.FarOrder: a ladder of loosened opening multipliers derived from
// the first NEGLECTED moment order, the shared per-entry order-admission
// test, and the dipole/quadrupole correction kernels for the Born
// integral accumulation and the E_pol histogram convolution. The moments
// themselves live on the octrees (octree/moments.go) and are maintained
// through every update path; the kernels here only read them.
//
// The ladder derivation mirrors farSeparated's error analysis
// (DESIGN.md §15), with the kernel's steepness carried explicitly.
// Write t = (r_a+r_b)/dist for an admitted pair. For a kernel that
// falls off like |x|^−m the order-k multipole term is bounded by
// A_k·t^k with A_k = C_k^{m/2}(1) = binom(k+m−1, k) — the Gegenbauer
// coefficients of the generating expansion of |d+δ|^−m, which grow like
// k^{m−1} (for the Coulomb kernel m = 1 they are all 1 and this reduces
// to the familiar geometric bound t/(1−t)).
//
// The base multiplier mac₀ certifies every order-0 admission a
// worst-case truncation budget of the FULL neglected tail,
//
//	b = Σ_{k≥1} A_k t₀^k = (1−t₀)^−m − 1,  t₀ = 1/mac₀.
//
// An order-p run evaluates the moments through order p exactly on
// every far entry and neglects Σ_{k≥p+1} A_k t^k = (1−t)^−m − S_p(t)
// with S_p(t) = Σ_{k≤p} A_k t^k, so spending the SAME certified budget
// admits any pair with that tail ≤ b — i.e. t up to the root t_p of
//
//	F(t) = (1−t)^−m − S_p(t) − b = 0   on (t₀, 1).
//
// A loosened rung therefore never has a worse guaranteed error than
// the paper's own criterion promises at the same ε. F is strictly
// increasing and convex (its series has only positive coefficients,
// all of order > p), F(t₀) < 0 and F → +∞ at 1⁻, so the root is unique
// and plain bisection pins it to full float64 precision in ~70
// halvings — the ladder is computed once per compile, so robustness
// beats Newton's iteration count here.
//
// Rung 1 is the deliberate exception: macs[1] stays at mac₀. Node
// centers are the CENTROIDS of their points (octree.go), so the k = 1
// term of the order-0 expansion largely cancels — the very
// cancellation looseMACFactor's (1 + 2/ε) criterion is built on
// (born.go). A dipole-only rung corrects a term order 0 already gets
// mostly for free and cannot buy admission at equal MEASURED error;
// FarOrder = 1 is an accuracy tier (it corrects the residual dipole on
// every far entry), FarOrder = 2 is the consolidation tier. Order 0
// keeps the cancellation as pure bonus below its certified bound,
// which is why the equal-budget rung 2 holds equal measured error in
// practice (the equal-error acceptance test pins this).

// maxFarOrder is the highest supported expansion order (quadrupole).
const maxFarOrder = 2

// Ladder kernel degrees: the Born phase expands φ(v) = v/|v|^2κ, whose
// order-k Taylor coefficients grow exactly like those of |v|^−(2κ−1)
// (φ = −∇|v|^−(2κ−2)/(2κ−2); the derivative's (k+1)·binom(k+2κ−2, k+1)
// growth matches binom(k+2κ−2, k) term for term), so the Born ladder
// budgets for m = 2κ−1: 5 for R6, 3 for R4.
//
// The E_pol ladder does NOT loosen (deg 0 keeps every rung at the base
// multiplier): its moment corrections are derived in the COULOMB limit
// of f_GB, valid only where the smoothing term R_uR_v·exp(−d²/4R_uR_v)
// has died off. A Coulomb-budget rung (m = 1 loosens to mac ≈ 2 at
// ε = 0.3) would admit pairs where the smoothing is alive and the
// corrections model the wrong kernel — measured E_pol error blows up by
// an order of magnitude. The E_pol far field keeps order-0 admission
// and spends FarOrder purely on accuracy: the run order's corrections
// fire on every admitted entry.
const epolLadderDeg = 0

// bornLadderDeg is the |x|^−m steepness the Born ladder budgets for.
func bornLadderDeg(kern BornKernel) int {
	if kern == R4 {
		return 3
	}
	return 5
}

// macLadder returns the opening-multiplier ladder for a base multiplier
// mac0, admitted-order cap pmax and kernel degree deg: macs[0] = mac0
// EXACTLY (order 0 is bit-identical to the single-multiplier criterion)
// and macs[p] for p ≤ pmax is the equal-error loosened multiplier
// derived above. Slots above pmax keep mac0 and are never consulted.
// mac0 = +Inf (ε = 0, nothing is ever far) propagates to every order.
func macLadder(mac0 float64, pmax, deg int) [maxFarOrder + 1]float64 {
	var macs [maxFarOrder + 1]float64
	for p := range macs {
		macs[p] = mac0
	}
	if pmax <= 0 || deg <= 0 || math.IsInf(mac0, 1) {
		// deg 0 is the flat ladder: per-entry orders (and with them the
		// moment corrections) without any loosened admission.
		return macs
	}
	m := float64(deg)
	t0 := 1 / mac0
	b := math.Pow(1-t0, -m) - 1 // the base criterion's certified worst-case tail
	// A_k = binom(k+m−1, k) via the rising ratio; S_p(t) accumulated per
	// candidate t inside the bisection predicate.
	tail := func(t float64, p int) float64 {
		s, ak, tk := 1.0, 1.0, 1.0
		for k := 1; k <= p; k++ {
			ak *= (float64(k) + m - 1) / float64(k)
			tk *= t
			s += ak * tk
		}
		return math.Pow(1-t, -m) - s
	}
	for p := 2; p <= pmax && p <= maxFarOrder; p++ {
		lo, hi := t0, 1-1e-9
		for it := 0; it < 80; it++ {
			mid := 0.5 * (lo + hi)
			if tail(mid, p) > b {
				hi = mid
			} else {
				lo = mid
			}
		}
		macs[p] = 1 / lo
	}
	return macs
}

// farOrderOf is farSeparated's opening test extended to the multiplier
// ladder: it returns the lowest order whose (looser) criterion admits
// the pair, trying order 0 first with the EXACT arithmetic of
// farSeparated — s = (ra+rb)·macs[0], admitted iff d2 > s² — so a
// ladder with pmax = 0 reproduces the single-multiplier classification
// bit for bit. ok is false when every order refuses (descend/near).
func farOrderOf(d2, ra, rb float64, macs *[maxFarOrder + 1]float64, pmax int) (ord int, ok bool) {
	s := (ra + rb) * macs[0]
	if d2 > s*s {
		return 0, true
	}
	for k := 1; k <= pmax; k++ {
		s = (ra + rb) * macs[k]
		if d2 > s*s {
			return k, true
		}
	}
	return 0, false
}

// bornFarMoments is one Born row's source moments — the q-leaf's "wn"
// vector moment set (octree/moments.go) gathered into the layout the
// far-correction kernel consumes: m0 is the aggregate ñ_Q (≡ QNodeWN),
// d[γ]/q[γ] the first/second moments of weight component γ about the
// leaf center. Gathered once per row; the per-node arrays it points
// into may be reallocated by updates, so views are never kept across
// rows.
type bornFarMoments struct {
	m0 geom.Vec3
	d  [3]geom.Vec3
	q  [3]geom.Sym3
}

// bornRowMoments gathers the "wn" source moments of q-points leaf leaf.
func bornRowMoments(ms *octree.MomentSet, leaf int32) bornFarMoments {
	var fm bornFarMoments
	fm.m0 = geom.Vec3{X: ms.Ch[0].W[leaf], Y: ms.Ch[1].W[leaf], Z: ms.Ch[2].W[leaf]}
	for c := 0; c < 3; c++ {
		fm.d[c] = ms.Ch[c].D[leaf]
		fm.q[c] = ms.Ch[c].Q[leaf]
	}
	return fm
}

// bornFarCorrection evaluates the order-ord correction for one admitted
// Born far entry. The order-0 pseudo-q-point term M0·d/|d|^2κ (left in
// the caller, untouched) is the zeroth term of the double Taylor
// expansion of Σ_q wn_q·φ(d + δ_q − ξ) around the center offset
// d = c_Q − c_A, where φ(v) = v/|v|^2κ, δ_q is the q-point's offset in
// its leaf and ξ the receiving atom's offset in node A. With
//
//	a0 = 1/|d|^2κ, a1 = κ·a0/|d|², a2 = (κ+1)·a1/|d|²
//
// the derivatives of φ at d are ∂φ = a0·I − 2a1·d⊗d and
// ∂∂φ_γαβ = −2a1(δ_γβ d_α + δ_γα d_β + δ_αβ d_γ) + 4a2 d_γ d_α d_β.
// Contracting with the source moments M0/M1/M2 and collecting powers of
// ξ yields the returned pieces of the node's receiver expansion
// value(ξ) = s + g·ξ + ξᵀhξ, which PushIntegralsToAtoms translates down
// to the atoms (L2L):
//
//	ord ≥ 1: ds = a0·tr(M1) − 2a1·dᵀM1d,  dg = −a0·M0 + 2a1(M0·d)·d
//	ord ≥ 2: ds += −a1·(2·Σγ(M2γd)γ + Σγ dγ·tr(M2γ)) + 2a2·Σγ dγ·dᵀM2γd
//	         dg += 2a1·[M1d + M1ᵀd + tr(M1)·d] − 4a2·(dᵀM1d)·d
//	         dh  = −a1·(M0⊗d + d⊗M0) − a1(M0·d)·I + 2a2(M0·d)·d⊗d
func bornFarCorrection(fm *bornFarMoments, dx, dy, dz, d2 float64, r4 bool, ord int) (ds float64, dg geom.Vec3, dh geom.Sym3) {
	den := d2 * d2
	kap := 2.0
	if !r4 {
		den *= d2
		kap = 3
	}
	a0 := 1 / den
	a1 := kap * a0 / d2
	a2 := (kap + 1) * a1 / d2
	d := geom.Vec3{X: dx, Y: dy, Z: dz}

	m1d := geom.Vec3{X: fm.d[0].Dot(d), Y: fm.d[1].Dot(d), Z: fm.d[2].Dot(d)} // M1·d (rows = channels)
	trM1 := fm.d[0].X + fm.d[1].Y + fm.d[2].Z
	dM1d := d.Dot(m1d)
	m0d := fm.m0.Dot(d)

	ds = a0*trM1 - 2*a1*dM1d
	dg = d.Scale(2 * a1 * m0d).Sub(fm.m0.Scale(a0))
	if ord < 2 {
		return ds, dg, geom.Sym3{}
	}

	q0d, q1d, q2d := fm.q[0].MulVec(d), fm.q[1].MulVec(d), fm.q[2].MulVec(d)
	diagQd := q0d.X + q1d.Y + q2d.Z                                         // Σγ (M2γ·d)γ
	trQd := d.X*fm.q[0].Trace() + d.Y*fm.q[1].Trace() + d.Z*fm.q[2].Trace() // Σγ dγ·tr(M2γ)
	quadQd := d.X*fm.q[0].Quad(d) + d.Y*fm.q[1].Quad(d) + d.Z*fm.q[2].Quad(d)
	ds += -a1*(2*diagQd+trQd) + 2*a2*quadQd

	m1td := fm.d[0].Scale(d.X).Add(fm.d[1].Scale(d.Y)).Add(fm.d[2].Scale(d.Z)) // M1ᵀ·d
	dg = dg.Add(m1d.Add(m1td).Add(d.Scale(trM1)).Scale(2 * a1)).Sub(d.Scale(4 * a2 * dM1d))

	dh = geom.SymOuter(fm.m0, d).Scale(-a1)
	dh.XX -= a1 * m0d
	dh.YY -= a1 * m0d
	dh.ZZ -= a1 * m0d
	dh = dh.Add(geom.Outer(d).Scale(2 * a2 * m0d))
	return ds, dg, dh
}

// epolFarCorrection evaluates the order-ord moment correction for one
// E_pol far node pair: node U's charge moments (M_U, D_U, Θ_U) against
// row node V's, with d = c_U − c_V (the direction every far path
// computes). The histogram term approximates Σ q_u q_v/f_GB(d) — in the
// far regime f_GB is within half an ulp of plain |r| (the expSkip
// analysis in kernels.go), so the corrections expand the Coulomb limit
// Σ q_u q_v/|d + δ_u − δ_v|:
//
//	ord ≥ 1: −d·(M_V·D_U − M_U·D_V)/r³
//	ord ≥ 2: (3/2)·[M_V·dᵀΘ_U d + M_U·dᵀΘ_V d]/r⁵
//	         − [3(d·D_U)(d·D_V) − r²·(D_U·D_V)]/r⁵
//
// with Θ the detraced second moment (the r² cross terms fold into Θ
// because ∇²(1/r) = 0). The same scalar float64 expression is added by
// every tier — exact, approximate, lanes and f32 — at the same point of
// the row sum, preserving the lanes tier's bit-compatibility invariant.
//
// The Coulomb limit leaves the smoothing term R_uR_v·exp(−d²/4R_uR_v)
// uncorrected; at sane ε it is exponentially dead for admitted pairs
// (the expSkip analysis), while at very loose ε (≳ 3, base multiplier
// approaching 1) it — and the slow convergence of the expansion itself
// at t ≈ 0.6 — caps how much the corrections can recover. That regime
// carries ~10⁻² error at EVERY order; the pareto bench table reports
// it honestly.
func (ctx *EpolContext) epolFarCorrection(u, v int32, dx, dy, dz, d2 float64, ord int) float64 {
	d := geom.Vec3{X: dx, Y: dy, Z: dz}
	mU, mV := ctx.mW[u], ctx.mW[v]
	dU, dV := ctx.mD[u], ctx.mD[v]
	inv3 := 1 / (d2 * math.Sqrt(d2))
	s := -(mV*dU.Dot(d) - mU*dV.Dot(d)) * inv3
	if ord >= 2 {
		inv5 := inv3 / d2
		s += 1.5*(mV*ctx.mTh[u].Quad(d)+mU*ctx.mTh[v].Quad(d))*inv5 -
			(3*dU.Dot(d)*dV.Dot(d)-d2*dU.Dot(dV))*inv5
	}
	return s
}

//! The Gilbert–Elliott chain's sojourn draw.
//!
//! A state left with per-instant probability `leave` lasts a geometric
//! number of instants. One draw turns a 53-bit uniform `u ∈ [0, 1)` into
//!
//! ```text
//! len = 1 + ⌊ln(1 − u) / ln(1 − leave)⌋, clamped to [1, 2^32],
//! ```
//!
//! bit for bit as [`SojournDraw::reference`] evaluates it with the
//! platform `ln` and one division. Every fixture that pins a bursty run
//! depends on each draw, so how a draw is evaluated may change but its
//! value may not. A state left with certainty (`leave ≥ 1`) lasts one
//! instant and consumes no uniform.
//!
//! Most draws never call the platform `ln`: [`SojournDraw::fast`]
//! approximates the quotient from the exponent of `1 − u`, a 256-entry
//! table and a cubic, and answers only when the approximation lies too
//! far from every integer for the reference quotient to have a different
//! floor. Every other draw takes the reference.

use rand::rngs::StdRng;
use rand::Rng;

// The fast path's error bound. Write `x = 1 − u` (exact in f64, since `u`
// is a multiple of 2^-53 in [0, 1)), `Q = ln(x) / ln_stay` for the exact
// quotient, `q` for the reference's computed one and `q̃` for the fast
// path's.
//
// * The reference rounds twice: the platform `ln` (under 1 ulp, 2^-52
//   relative, for glibc) and the division (2^-53 relative).
// * `ln_approx` evaluates `ln x = e·ln 2 − ln(inv_c) + ln(1 + r)` with
//   `r = m·inv_c − 1` and |r| < 2^-9. Truncating `ln(1 + r)` after r³
//   errs by at most |r|⁴ / (4(1 − |r|)) < 3.65e-12. The table's logs
//   (a few ulps of at most 0.7), the product `m·inv_c` (2^-53), `e·ln 2`
//   for |e| ≤ 53 and the three additions (half an ulp of at most 37 each)
//   add under 2e-14. So |ln_approx(x) − ln x| < 3.7e-12, which moves the
//   quotient by 3.7e-12 / |ln_stay|.
// * Multiplying by a rounded reciprocal of `ln_stay` adds two roundings,
//   2^-52 relative.
//
// Altogether |q̃ − q| < 3.7e-12 / |ln_stay| + 5·2^-53·Q (to first order;
// the second-order terms are below 1e-30·Q), and for q̃ below
// `FAST_LIMIT = 2^20` the second term is under 5.9e-10. `APPROX_SLACK`
// and `ROUNDING_SLACK` cover the two terms 27 and 3 times over. When q̃
// lies farther than their sum from every integer, q lies strictly
// between the same two integers, so ⌊q⌋ = ⌊q̃⌋ and both draws agree.

/// Covers the fast quotient's approximation error, 3.7e-12 / |ln_stay|
/// (see the derivation above).
const APPROX_SLACK: f64 = 1e-10;

/// Covers the roundings of both quotients below [`FAST_LIMIT`],
/// 5.9e-10 (see the derivation above).
const ROUNDING_SLACK: f64 = 2e-9;

/// Fast quotients at or above 2^20 take the reference: below it their
/// rounding stays under [`ROUNDING_SLACK`].
const FAST_LIMIT: f64 = (1u64 << 20) as f64;

/// The low 52 bits of an `f64`: its fraction.
const FRACTION: u64 = (1 << 52) - 1;

/// `(inv_c, −ln inv_c)` for the centre `c = 1 + (i + ½)/256` of each of
/// the 256 buckets `i` of the top eight fraction bits, built at compile
/// time. The log is that of the stored reciprocal, so the reciprocal's
/// rounding cancels in `ln_approx`.
static LN_BUCKETS: [(f64, f64); 256] = ln_buckets();

const fn ln_buckets() -> [(f64, f64); 256] {
    let mut table = [(0.0, 0.0); 256];
    let mut i = 0;
    while i < 256 {
        let inv_c = 1.0 / (1.0 + (i as f64 + 0.5) / 256.0);
        // ln v = 2s · Σ s^(2k) / (2k + 1) for s = (v − 1)/(v + 1). For v
        // in (½, 1), |s| < ⅓, so the 24 terms summed (smallest first)
        // leave a tail under 1e-24.
        let s = (inv_c - 1.0) / (inv_c + 1.0);
        let mut sum = 0.0;
        let mut k = 24;
        while k > 0 {
            k -= 1;
            sum = sum * s * s + 1.0 / (2 * k + 1) as f64;
        }
        table[i] = (inv_c, -2.0 * s * sum);
        i += 1;
    }
    table
}

/// `ln x` for a positive normal `x`, within 3.7e-12: `x = 2^e · m` with
/// `m ∈ [1, 2)` in the bucket of its top eight fraction bits, and
/// `ln x = e·ln 2 + ln c + ln(1 + r)` with the last term a cubic in
/// `r = m / c − 1`.
#[inline]
fn ln_approx(x: f64) -> f64 {
    let bits = x.to_bits();
    let e = (bits >> 52) as i32 - 1023;
    let (inv_c, ln_c) = LN_BUCKETS[(bits >> 44) as usize & 0xff];
    let m = f64::from_bits(bits & FRACTION | 1f64.to_bits());
    let r = m * inv_c - 1.0;
    f64::from(e) * std::f64::consts::LN_2 + ln_c + r * (1.0 + r * (r * (1.0 / 3.0) - 0.5))
}

/// `1 + ⌊q⌋` clamped to `[1, 2^32]`, for every `f64` quotient `q`, equal
/// to `((1.0 + q.floor()) as u64).clamp(1, 1 << 32)`. The conversion
/// truncates toward zero and saturates: `q` in `[0, 2^32)` gives `⌊q⌋`;
/// `−0.0`, `(−1, 0)` and NaN give 0; `q ≤ −1` and `−∞` give a negative;
/// `q ≥ 2^32` and `+∞` give at least `2^32`.
#[inline]
fn sojourn_len(q: f64) -> u64 {
    ((q as i64).clamp(0, (1 << 32) - 1) + 1) as u64
}

/// One state's sojourn draw, with its constants derived once per tune-in
/// and shared by every channel's chain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SojournDraw {
    /// `leave ≥ 1`: every sojourn lasts one instant and draws nothing.
    certain: bool,
    /// `ln(1 − leave)`, the reference quotient's divisor.
    ln_stay: f64,
    /// `1 / ln_stay`, the fast quotient's multiplier.
    inv_ln_stay: f64,
    /// How near an integer the fast quotient may lie and still be
    /// trusted: `APPROX_SLACK / |ln_stay| + ROUNDING_SLACK`.
    slack: f64,
}

impl SojournDraw {
    /// The draw of a state left with per-instant probability `leave`, in
    /// `(0, 1]` as `GilbertElliott` validates it.
    pub(crate) fn new(leave: f64) -> Self {
        let ln_stay = (1.0 - leave).ln();
        // For leave ≤ 2^-54, 1 − leave rounds to 1 and its log to 0, which
        // would end every sojourn after one instant; `ln_1p` keeps the
        // leave. No larger leave takes this branch.
        let ln_stay = if ln_stay == 0.0 {
            (-leave).ln_1p()
        } else {
            ln_stay
        };
        Self {
            certain: leave >= 1.0,
            ln_stay,
            inv_ln_stay: 1.0 / ln_stay,
            slack: APPROX_SLACK / ln_stay.abs() + ROUNDING_SLACK,
        }
    }

    /// One sojourn length, drawing one uniform from `rng` unless the state
    /// is left with certainty.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut StdRng) -> u64 {
        if self.certain {
            return 1;
        }
        let u: f64 = rng.gen();
        self.fast(u).unwrap_or_else(|| self.reference(u))
    }

    /// The sojourn of uniform `u` without the platform `ln`, or `None`
    /// when the fast quotient is not below `FAST_LIMIT` (NaN included) or
    /// lies within the slack of an integer.
    #[inline]
    fn fast(&self, u: f64) -> Option<u64> {
        let q = ln_approx(1.0 - u) * self.inv_ln_stay;
        if q < FAST_LIMIT {
            let whole = q as i64;
            let frac = q - whole as f64;
            (frac > self.slack && frac < 1.0 - self.slack).then_some(whole as u64 + 1)
        } else {
            None
        }
    }

    /// The sojourn of uniform `u` by its definition: the platform `ln`
    /// and a division.
    fn reference(&self, u: f64) -> u64 {
        sojourn_len((1.0 - u).ln() / self.ln_stay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The draw as the chain first defined it, for a `leave < 1`: the
    /// oracle every faster evaluation must equal.
    fn oracle(u: f64, leave: f64) -> u64 {
        ((1.0 + ((1.0 - u).ln() / (1.0 - leave).ln()).floor()) as u64).clamp(1, 1 << 32)
    }

    /// The oracle's conversion of a quotient.
    fn oracle_len(q: f64) -> u64 {
        ((1.0 + q.floor()) as u64).clamp(1, 1 << 32)
    }

    /// The uniforms `rng.gen()` yields are the multiples of 2^-53 in
    /// [0, 1); this is the one at grid index `k`.
    fn grid(k: u64) -> f64 {
        k as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The last grid index, `u = 1 − 2^-53`.
    const GRID_LAST: u64 = (1 << 53) - 1;

    /// Debug builds run the sweeps at a fraction of their release size.
    const FULL: bool = !cfg!(debug_assertions);

    #[test]
    fn sojourn_len_matches_the_floor_conversion() {
        let two32 = (1u64 << 32) as f64;
        let mut qs = vec![
            0.0,
            -0.0,
            -1e-300,
            -0.5,
            -1.0,
            -1.5,
            -1e20,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            two32,
            two32 - 0.5,
            (1u64 << 52) as f64,
            (1u64 << 63) as f64,
            1.8446744073709552e19,
            1e300,
        ];
        for n in [1.0, 2.0, 3.0, 1e6, two32 - 1.0, two32, two32 + 1.0] {
            let (mut below, mut above) = (n, n);
            for _ in 0..4 {
                below = f64::next_down(below);
                above = f64::next_up(above);
                qs.extend([below, above, -below, -above]);
            }
        }
        let mut rng = StdRng::seed_from_u64(31);
        let draws = if FULL { 1_000_000 } else { 20_000 };
        for _ in 0..draws {
            // Every bit pattern (NaNs, infinities, subnormals, negatives),
            // then the range the draws produce.
            qs.push(f64::from_bits(rng.next_u64()));
            qs.push(rng.gen::<f64>() * 2.0 * two32);
        }
        for q in qs {
            assert_eq!(
                sojourn_len(q),
                oracle_len(q),
                "q = {q:e} ({:#x})",
                q.to_bits()
            );
        }
    }

    #[test]
    fn sojourn_log_table_and_cubic_stay_within_the_bound() {
        for (i, &(inv_c, ln_c)) in LN_BUCKETS.iter().enumerate() {
            assert_eq!(inv_c, 1.0 / (1.0 + (i as f64 + 0.5) / 256.0), "bucket {i}");
            assert!((ln_c + inv_c.ln()).abs() < 1e-15, "bucket {i}: {ln_c:e}");
        }
        // Bucket edges and centres at every exponent a draw reaches, then
        // random draws: the derivation's 3.7e-12 must hold everywhere.
        let mut xs = vec![1.0];
        for e in -53..0 {
            for i in 0..256u64 {
                let lo = (((1023 + e) as u64) << 52) | (i << 44);
                let (lo, hi) = (f64::from_bits(lo), f64::from_bits(lo | ((1 << 44) - 1)));
                xs.extend([lo, hi, (lo + hi) / 2.0]);
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        xs.extend((0..if FULL { 1_000_000 } else { 20_000 }).map(|_| 1.0 - rng.gen::<f64>()));
        for x in xs {
            let err = (ln_approx(x) - x.ln()).abs();
            assert!(err < 3.7e-12, "ln({x:e}) off by {err:e}");
        }
    }

    /// Checks `draw` against the oracle at uniform `u`: the value always,
    /// the fast quotient's error against the slack wherever the fast path
    /// may answer, and that a reference quotient within half the slack of
    /// an integer takes the fallback. Returns whether the fast path
    /// answered.
    fn check(draw: &SojournDraw, leave: f64, u: f64) -> bool {
        let expected = oracle(u, leave);
        let fast = draw.fast(u);
        assert_eq!(
            fast.unwrap_or_else(|| draw.reference(u)),
            expected,
            "leave {leave:e} u {u:e}"
        );
        let q = (1.0 - u).ln() / (1.0 - leave).ln();
        if q < FAST_LIMIT {
            let err = (ln_approx(1.0 - u) * draw.inv_ln_stay - q).abs();
            assert!(err < draw.slack, "leave {leave:e} u {u:e}: error {err:e}");
            if (q - q.round()).abs() < draw.slack / 2.0 {
                assert_eq!(fast, None, "leave {leave:e} u {u:e} near {}", q.round());
            }
        }
        fast.is_some()
    }

    #[test]
    fn fast_sojourn_matches_the_reference_at_every_crossing() {
        let (crossings, width) = if FULL { (2_000, 2_000) } else { (200, 20) };
        // The bursty chain's pair and the deep-fade pair.
        for leave in [0.02, 0.25, 1.0 / 6000.0, 1.0 / 1500.0] {
            let draw = SojournDraw::new(leave);
            // Draws near crossings the fast path answered / left to the
            // fallback.
            let (mut hits, mut misses) = (0u64, 0u64);
            let mut near = |u: f64| {
                if check(&draw, leave, u) {
                    hits += 1
                } else {
                    misses += 1
                }
            };
            // The edges of the grid.
            assert_eq!(draw.fast(0.0), None, "u = 0 sits on the integer 0");
            near(0.0);
            near(grid(GRID_LAST));
            // Crossing k is the first grid index whose reference length
            // exceeds k, found by bisection, until the grid runs out of
            // crossings (0.25 has 127, 0.02 has 1,818).
            let mut lo = 0;
            let mut found = 0;
            for k in 1..=crossings {
                let mut hi = GRID_LAST;
                if oracle(grid(hi), leave) <= k {
                    break;
                }
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if oracle(grid(mid), leave) > k {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                found += 1;
                for j in hi.saturating_sub(width)..=(hi + width).min(GRID_LAST) {
                    near(grid(j));
                }
                // Power-of-two distances reach past the fallback zone
                // around the crossing, whatever its width in grid steps.
                for d in (0..48).map(|b| 1u64 << b) {
                    for j in [hi.checked_sub(d), hi.checked_add(d)].into_iter().flatten() {
                        if j <= GRID_LAST {
                            near(grid(j));
                        }
                    }
                }
            }
            assert!(
                found >= crossings.min(127),
                "leave {leave:e}: {found} crossings"
            );
            assert!(
                misses > 0 && hits > 0,
                "leave {leave:e}: {hits} fast, {misses} fallback"
            );
            // Random draws through `sample`, against the oracle on a twin
            // stream: all but a few take the fast path.
            let (mut rng, mut twin) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
            let draws = if FULL { 1_000_000 } else { 20_000 };
            let mut fast = 0;
            for _ in 0..draws {
                let u: f64 = twin.gen();
                assert_eq!(
                    draw.sample(&mut rng),
                    oracle(u, leave),
                    "leave {leave:e} u {u:e}"
                );
                fast += u64::from(check(&draw, leave, u));
            }
            assert!(
                fast >= draws - draws / 1000,
                "leave {leave:e}: {fast} of {draws} fast"
            );
        }
    }

    #[test]
    fn certain_and_clamped_sojourns_match_the_reference() {
        // A state left with certainty lasts one instant and draws nothing.
        let (mut rng, mut twin) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        assert_eq!(SojournDraw::new(1.0).sample(&mut rng), 1);
        assert_eq!(rng.next_u64(), twin.next_u64(), "no uniform consumed");
        // Quotients at and far beyond 2^32 take the fallback and clamp.
        let leave = 1e-12;
        let draw = SojournDraw::new(leave);
        for u in [0.5, 0.999, grid(GRID_LAST)] {
            assert_eq!(draw.fast(u), None, "u {u:e}");
            assert_eq!(draw.reference(u), 1 << 32, "u {u:e}");
            assert_eq!(oracle(u, leave), 1 << 32, "u {u:e}");
        }
        // A quotient of about 4·10^9, just under 2^32, is not clamped.
        let u = 1.0 - (-4e-3f64).exp();
        assert_eq!(draw.fast(u), None);
        assert_eq!(draw.reference(u), oracle(u, leave));
        assert!(draw.reference(u) < 1 << 32);
        // Quotients from 2^20 up (here 6.9·10^8 to 3.7·10^10) take the
        // reference even where the slack (0.1) would let the fast path
        // answer.
        let leave = 1e-9;
        let draw = SojournDraw::new(leave);
        for u in [0.5, 0.75, 0.9, 0.99, 0.999_999, grid(GRID_LAST)] {
            assert_eq!(draw.fast(u), None, "u {u:e}");
            assert_eq!(draw.reference(u), oracle(u, leave), "u {u:e}");
        }
    }
}

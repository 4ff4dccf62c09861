//! Defence strategies beyond the paper's y-noise obfuscation.
//!
//! Section III-I demonstrates one obfuscation (Gaussian y-noise,
//! [`crate::obfuscate`]); the related work it cites spans a wider design
//! space — routing perturbation \[14\], wire lifting \[8\], obfuscated cells
//! \[7\] and dummy structures \[16\]. This module implements representative
//! members of each family as `SplitView -> SplitView` transforms so they
//! can be evaluated against the identical attack pipeline:
//!
//! - [`xy_noise`] — routing perturbation in *both* axes (stronger than the
//!   paper's y-only noise but breaks the top-layer direction convention,
//!   so it is only applicable below the top split layer).
//! - [`decoy_pairs`] — dummy BEOL connections: inserted v-pin pairs that
//!   carry realistic features but belong to no functional net, diluting
//!   every list of candidates.
//! - [`wirelength_scramble`] — dummy below-split detours randomising the
//!   `W` feature (and with it `TotalWirelength`).
//! - [`area_camouflage`] — camouflaged drive strengths: reported cell
//!   areas are quantised to a single size class, starving the
//!   `TotalArea`/`DiffArea` features.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sm_layout::geom::Point;
use sm_layout::{SplitView, VPin};

/// Applies Gaussian noise with `sd_fraction` of the die size to **both**
/// coordinates of every v-pin (routing perturbation, cf. \[14\]).
///
/// # Panics
///
/// Panics if the view cannot be reassembled (cannot happen for inputs that
/// were valid views).
pub fn xy_noise(view: &SplitView, sd_fraction: f64, seed: u64) -> SplitView {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sdx = sd_fraction * view.die.width() as f64;
    let sdy = sd_fraction * view.die.height() as f64;
    let vpins: Vec<VPin> = view
        .vpins()
        .iter()
        .map(|vp| {
            let mut out = *vp;
            out.loc = view.die.clamp(Point::new(
                vp.loc.x + (gauss(&mut rng) * sdx) as i64,
                vp.loc.y + (gauss(&mut rng) * sdy) as i64,
            ));
            out
        })
        .collect();
    rebuild(view, vpins)
}

/// Inserts `fraction · n` dummy v-pin *pairs* (dummy BEOL nets). Each decoy
/// pair clones the geometry statistics of a randomly chosen real pair with
/// jittered positions, so no single feature gives it away.
///
/// # Panics
///
/// Panics if `fraction` is negative.
pub fn decoy_pairs(view: &SplitView, fraction: f64, seed: u64) -> SplitView {
    assert!(fraction >= 0.0, "decoy fraction must be non-negative");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = view.num_vpins();
    let extra_pairs = ((fraction * n as f64) / 2.0).round() as usize;
    let mut vpins = view.vpins().to_vec();
    let mut partner: Vec<u32> = (0..n).map(|i| view.true_match(i) as u32).collect();
    for _ in 0..extra_pairs {
        // Clone a template pair and displace it.
        let t = rng.gen_range(0..n);
        let m = view.true_match(t);
        let dx = rng.gen_range(-view.die.width() / 4..=view.die.width() / 4);
        let dy = rng.gen_range(-view.die.height() / 4..=view.die.height() / 4);
        let mut a = view.vpins()[t];
        let mut b = view.vpins()[m];
        // Each endpoint additionally gets independent jitter so the decoy
        // pair is not a recognisable rigid copy of a real pair.
        let wiggle = (view.die.width() / 64).max(1);
        for vp in [&mut a, &mut b] {
            let jx = rng.gen_range(-wiggle..=wiggle);
            let jy = rng.gen_range(-wiggle..=wiggle);
            vp.loc = view
                .die
                .clamp(Point::new(vp.loc.x + dx + jx, vp.loc.y + dy + jy));
            vp.pin_loc = view
                .die
                .clamp(Point::new(vp.pin_loc.x + dx + jx, vp.pin_loc.y + dy + jy));
            vp.wirelength = (vp.wirelength as f64 * rng.gen_range(0.8..1.25)) as i64;
        }
        let ia = vpins.len() as u32;
        vpins.push(a);
        vpins.push(b);
        partner.push(ia + 1);
        partner.push(ia);
    }
    SplitView::from_parts(view.name.clone(), view.split, view.die, vpins, partner)
        .expect("decoy construction preserves the matching invariants")
}

/// Multiplies every v-pin's below-split wirelength by a random factor in
/// `[1, 1 + strength]` (dummy detours inserted by the defender's router).
pub fn wirelength_scramble(view: &SplitView, strength: f64, seed: u64) -> SplitView {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let vpins: Vec<VPin> = view
        .vpins()
        .iter()
        .map(|vp| {
            let mut out = *vp;
            let f = 1.0 + rng.gen_range(0.0..=strength.max(0.0));
            out.wirelength = (vp.wirelength as f64 * f) as i64;
            out
        })
        .collect();
    rebuild(view, vpins)
}

/// Replaces every connected-cell area with the median size class
/// (camouflaged drive strengths, cf. \[7\]): `InArea`/`OutArea` keep their
/// direction information but lose their magnitudes.
pub fn area_camouflage(view: &SplitView) -> SplitView {
    let mut in_areas: Vec<i64> = view
        .vpins()
        .iter()
        .map(|v| v.in_area)
        .filter(|&a| a > 0)
        .collect();
    in_areas.sort_unstable();
    let unit = in_areas.get(in_areas.len() / 2).copied().unwrap_or(1);
    let vpins: Vec<VPin> = view
        .vpins()
        .iter()
        .map(|vp| {
            let mut out = *vp;
            out.in_area = if vp.in_area > 0 { unit } else { 0 };
            out.out_area = if vp.out_area > 0 { unit } else { 0 };
            out
        })
        .collect();
    rebuild(view, vpins)
}

/// Rebuilds a view with modified v-pins and the original matching.
fn rebuild(view: &SplitView, vpins: Vec<VPin>) -> SplitView {
    let partner: Vec<u32> = (0..view.num_vpins())
        .map(|i| view.true_match(i) as u32)
        .collect();
    SplitView::from_parts(view.name.clone(), view.split, view.die, vpins, partner)
        .expect("transforms preserve the matching invariants")
}

fn gauss<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_layout::{SplitLayer, Suite};

    fn view() -> SplitView {
        Suite::ispd2011_like(0.02)
            .expect("valid scale")
            .split_all(SplitLayer::new(6).expect("valid"))
            .remove(0)
    }

    #[test]
    fn xy_noise_moves_both_axes_but_keeps_truth() {
        let v = view();
        let noisy = xy_noise(&v, 0.01, 3);
        let moved_x = (0..v.num_vpins())
            .filter(|&i| noisy.vpins()[i].loc.x != v.vpins()[i].loc.x)
            .count();
        let moved_y = (0..v.num_vpins())
            .filter(|&i| noisy.vpins()[i].loc.y != v.vpins()[i].loc.y)
            .count();
        assert!(moved_x > v.num_vpins() / 2);
        assert!(moved_y > v.num_vpins() / 2);
        for i in 0..v.num_vpins() {
            assert_eq!(noisy.true_match(i), v.true_match(i));
        }
    }

    #[test]
    fn decoys_extend_the_view_with_valid_pairs() {
        let v = view();
        let defended = decoy_pairs(&v, 0.5, 4);
        let expected = v.num_vpins() + 2 * ((0.5 * v.num_vpins() as f64) / 2.0).round() as usize;
        assert_eq!(defended.num_vpins(), expected);
        // All pairs, including decoys, satisfy the matching invariant.
        for i in 0..defended.num_vpins() {
            let m = defended.true_match(i);
            assert_eq!(defended.true_match(m), i);
            assert!(defended.is_legal_pair(i, m));
        }
        // Original v-pins keep their original partners.
        for i in 0..v.num_vpins() {
            assert_eq!(defended.true_match(i), v.true_match(i));
        }
    }

    #[test]
    fn zero_fraction_decoys_is_identity_on_size() {
        let v = view();
        assert_eq!(decoy_pairs(&v, 0.0, 1).num_vpins(), v.num_vpins());
    }

    #[test]
    fn wirelength_scramble_only_touches_w() {
        let v = view();
        let s = wirelength_scramble(&v, 2.0, 5);
        let mut changed = 0;
        for i in 0..v.num_vpins() {
            assert_eq!(s.vpins()[i].loc, v.vpins()[i].loc);
            assert!(s.vpins()[i].wirelength >= v.vpins()[i].wirelength);
            if s.vpins()[i].wirelength != v.vpins()[i].wirelength {
                changed += 1;
            }
        }
        assert!(changed > v.num_vpins() / 2);
    }

    #[test]
    fn area_camouflage_flattens_magnitudes_and_keeps_direction() {
        let v = view();
        let c = area_camouflage(&v);
        let distinct: std::collections::HashSet<i64> = c
            .vpins()
            .iter()
            .map(|vp| vp.in_area)
            .filter(|&a| a > 0)
            .collect();
        assert_eq!(distinct.len(), 1, "all load areas collapse to one class");
        for i in 0..v.num_vpins() {
            assert_eq!(c.vpins()[i].drives(), v.vpins()[i].drives());
        }
    }

    #[test]
    fn defended_views_still_support_the_attack() {
        use crate::attack::{AttackConfig, ScoreOptions, TrainedAttack};
        let suite = Suite::ispd2011_like(0.02).expect("valid scale");
        let views = suite.split_all(SplitLayer::new(6).expect("valid"));
        let defended: Vec<SplitView> = views.iter().map(|v| decoy_pairs(v, 0.3, 9)).collect();
        let train: Vec<&SplitView> = defended[1..].iter().collect();
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        let scored = model.score(&defended[0], &ScoreOptions::default());
        assert_eq!(scored.slots.len(), defended[0].num_vpins());
    }
}

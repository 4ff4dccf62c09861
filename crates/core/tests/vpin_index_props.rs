//! Property tests of the [`VpinIndex`] spatial queries: radius,
//! legal-partner and same-track queries must return exactly the
//! brute-force candidate set over random v-pin layouts, radii and grid
//! sizes. This is the parity foundation the streaming enumeration's and
//! the sample draw's bit-identity claims rest on: if the index returns the
//! exact candidate set, the order-invariant scoring keeper and the
//! k-th-smallest draw do the rest.

use proptest::prelude::*;
use sm_attack::neighborhood::VpinIndex;
use sm_layout::geom::{Point, Rect};
use sm_layout::{SplitLayer, SplitView, VPin};

fn vpin_at(i: usize, x: i64, y: i64) -> VPin {
    VPin {
        loc: Point::new(x, y),
        pin_loc: Point::new(x, y),
        wirelength: 1_000,
        in_area: if i.is_multiple_of(2) { 0 } else { 2_000 },
        out_area: if i.is_multiple_of(2) { 2_000 } else { 0 },
        pc: 1.0,
        rc: 1.0,
    }
}

fn view_of(vpins: Vec<VPin>, w: i64, h: i64) -> SplitView {
    let partner: Vec<u32> = (0..vpins.len() as u32).map(|i| i ^ 1).collect();
    SplitView::from_parts(
        "prop".into(),
        SplitLayer::new(8).expect("valid layer"),
        Rect::new(Point::new(0, 0), Point::new(w, h)),
        vpins,
        partner,
    )
    .expect("valid synthetic view")
}

/// A random view: pins paired `(2i, 2i+1)` with even pins driving, y
/// snapped to a handful of tracks so same-track queries hit populated
/// tracks.
fn arb_view() -> impl Strategy<Value = SplitView> {
    (
        2usize..=24,
        20_000i64..1_500_000,
        20_000i64..1_500_000,
        prop::collection::vec((0i64..i64::MAX, 0u8..6), 48..49),
    )
        .prop_map(|(pairs, w, h, coords)| {
            let vpins: Vec<VPin> = coords[..pairs * 2]
                .iter()
                .enumerate()
                // Raw x draws reduce into the die width; y snaps to tracks.
                .map(|(i, &(x, t))| vpin_at(i, x % w, (t as i64 * h / 6).min(h - 1)))
                .collect();
            view_of(vpins, w, h)
        })
}

fn brute_within(view: &SplitView, from: Point, radius: i64, exclude: u32) -> Vec<u32> {
    (0..view.num_vpins() as u32)
        .filter(|&j| j != exclude && view.vpins()[j as usize].loc.manhattan(from) <= radius)
        .collect()
}

/// `within_radius_unordered`'s output, sorted.
fn sorted_within(
    idx: &VpinIndex,
    view: &SplitView,
    from: Point,
    radius: i64,
    exclude: u32,
) -> Vec<u32> {
    let mut out = Vec::new();
    idx.within_radius_unordered(view, from, radius, exclude, &mut out);
    out.sort_unstable();
    out
}

/// `partners_within_radius` around v-pin `i`, sorted, and what it must
/// equal: `within_radius_unordered` filtered by `is_legal_pair`, sorted.
fn partners_and_legal_filter(
    idx: &VpinIndex,
    view: &SplitView,
    i: usize,
    radius: i64,
) -> (Vec<u32>, Vec<u32>) {
    let mut got = Vec::new();
    idx.partners_within_radius(view, i, radius, &mut got);
    got.sort_unstable();
    let mut expected = sorted_within(idx, view, view.vpins()[i].loc, radius, i as u32);
    expected.retain(|&j| view.is_legal_pair(i, j as usize));
    (got, expected)
}

proptest! {
    #[test]
    fn within_radius_equals_sorted_brute_force(
        view in arb_view(),
        cell in 500i64..80_000,
        radius in 0i64..2_000_000,
        probe in 0usize..48,
        radius_sized_cells in prop::bool::ANY,
    ) {
        let idx = if radius_sized_cells {
            VpinIndex::with_radius(&view, radius.max(1))
        } else {
            VpinIndex::new(&view, cell)
        };
        let probe = probe % view.num_vpins();
        let from = view.vpins()[probe].loc;
        let brute = brute_within(&view, from, radius, probe as u32);
        prop_assert_eq!(sorted_within(&idx, &view, from, radius, probe as u32), brute);
    }

    #[test]
    fn partners_within_radius_equals_legal_filter(
        view in arb_view(),
        cell in 500i64..80_000,
        radius in 0i64..2_000_000,
        target in 0usize..48,
        radius_sized_cells in prop::bool::ANY,
    ) {
        let idx = if radius_sized_cells {
            VpinIndex::with_radius(&view, radius.max(1))
        } else {
            VpinIndex::new(&view, cell)
        };
        let (got, expected) =
            partners_and_legal_filter(&idx, &view, target % view.num_vpins(), radius);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn query_centres_need_not_be_vpins(
        view in arb_view(),
        cell in 500i64..80_000,
        radius in 0i64..2_000_000,
        qx in -100_000i64..1_600_000,
        qy in -100_000i64..1_600_000,
    ) {
        // Arbitrary (possibly out-of-die) query centres; u32::MAX excludes
        // nothing.
        let idx = VpinIndex::new(&view, cell);
        let from = Point::new(qx, qy);
        let brute = brute_within(&view, from, radius, u32::MAX);
        prop_assert_eq!(sorted_within(&idx, &view, from, radius, u32::MAX), brute);
    }

    #[test]
    fn same_y_equals_sorted_brute_force(
        view in arb_view(),
        cell in 500i64..80_000,
        probe in 0usize..48,
    ) {
        let idx = VpinIndex::new(&view, cell);
        let probe = probe % view.num_vpins();
        let y = view.vpins()[probe].loc.y;
        let mut out = Vec::new();
        idx.same_y(y, probe as u32, &mut out);
        let brute: Vec<u32> = (0..view.num_vpins() as u32)
            .filter(|&j| j != probe as u32 && view.vpins()[j as usize].loc.y == y)
            .collect();
        prop_assert_eq!(&out, &brute);
        // The probe's legal partners on its track: that list filtered by
        // `is_legal_pair`, in the same order.
        idx.partners_same_y(&view, probe, &mut out);
        let legal: Vec<u32> = brute
            .iter()
            .copied()
            .filter(|&j| view.is_legal_pair(probe, j as usize))
            .collect();
        prop_assert_eq!(&out, &legal);
        // A y no v-pin occupies yields the empty set.
        idx.same_y(-7, u32::MAX, &mut out);
        prop_assert!(out.is_empty());
    }
}

/// Out-of-die v-pins (possible through `io::read_challenge` or hand-built
/// views) clamp into edge cells of the grid; the bulk fast path must not
/// mistake them for in-cell pins, in either bucket table, and an edge cell
/// must not be skipped for its rectangle's distance alone.
#[test]
fn out_of_die_vpins_are_still_found_exactly() {
    let w = 100_000;
    let h = 100_000;
    let vpins = vec![
        vpin_at(0, 10_000, 10_000),
        vpin_at(1, 500_000, 500_000), // far outside the die
        vpin_at(2, -90_000, 20_000),  // negative coordinates
        vpin_at(3, 95_000, 95_000),
        vpin_at(4, 40_000, 40_000),
        vpin_at(5, 40_001, 40_000),
        // Near neighbours of the two outliers, both also off the die: a
        // query from one must find the other although their edge cell's
        // rectangle lies far from both.
        vpin_at(6, 500_010, 499_990),
        vpin_at(7, -90_005, 20_000),
    ];
    let view = view_of(vpins, w, h);
    for cell in [1_000i64, 7_000, 50_000, 200_000] {
        let idx = VpinIndex::new(&view, cell);
        for radius in [0i64, 30_000, 80_000, 500_000, 1_000_000] {
            for probe in 0..view.num_vpins() {
                let from = view.vpins()[probe].loc;
                let brute = brute_within(&view, from, radius, probe as u32);
                assert_eq!(
                    sorted_within(&idx, &view, from, radius, probe as u32),
                    brute,
                    "cell {cell} radius {radius} probe {probe}"
                );
                let (got, expected) = partners_and_legal_filter(&idx, &view, probe, radius);
                assert_eq!(
                    got, expected,
                    "partners: cell {cell} radius {radius} probe {probe}"
                );
            }
        }
    }
}

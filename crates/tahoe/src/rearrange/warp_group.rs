//! Warp-grouped tree order: the §4.2 similarity order, regrouped so that the
//! trees one warp walks together have one depth.
//!
//! Shared data hands layout tree `t` to thread `t mod threads`, so a warp
//! walks an aligned group of [`WARP_LANES`] consecutive layout trees in
//! lockstep, and each round lasts as long as its deepest lane
//! ([`crate::perfmodel::shared_data_chain`]). The LSH order puts similar trees
//! next to each other but does not group them by depth, so one deep tree
//! holds up a warp of shallow ones. This stage keeps the LSH order's
//! neighbourhoods and fixes the depths:
//!
//! 1. stable-sort the LSH order by tree depth, deepest first;
//! 2. cut it into groups of [`WARP_LANES`] trees;
//! 3. restore the LSH order inside each group;
//! 4. order the full groups by the LSH rank of their first member.
//!
//! The partial group, which holds the shallowest trees, stays last, so every
//! group stays aligned to a warp. A forest of at most one warp of trees
//! keeps its LSH order.

use crate::perfmodel::WARP_LANES;

/// Regroups `lsh_order` (layout position → original tree index) into
/// aligned warp groups of equal depth; `depths[t]` is original tree `t`'s
/// depth.
///
/// # Panics
///
/// Panics if `lsh_order` names a tree that `depths` does not cover.
#[must_use]
pub fn group_by_depth(lsh_order: &[usize], depths: &[usize]) -> Vec<usize> {
    if lsh_order.len() <= WARP_LANES {
        return lsh_order.to_vec();
    }
    // LSH ranks, deepest first; the sort is stable, so equal depths keep
    // their LSH order.
    let mut ranks: Vec<usize> = (0..lsh_order.len()).collect();
    ranks.sort_by_key(|&rank| std::cmp::Reverse(depths[lsh_order[rank]]));
    let mut groups: Vec<&mut [usize]> = ranks.chunks_mut(WARP_LANES).collect();
    for group in &mut groups {
        group.sort_unstable();
    }
    let partial = groups.pop_if(|g| g.len() < WARP_LANES);
    groups.sort_by_key(|group| group[0]);
    groups
        .into_iter()
        .chain(partial)
        .flat_map(|group| group.iter().map(|&rank| lsh_order[rank]))
        .collect()
}

/// The grouping-quality measure of the tests: each layout tree is charged
/// the largest depth of its aligned [`WARP_LANES`]-tree group, averaged over
/// trees. It is never below the mean depth and equals it when every group
/// is uniform.
#[cfg(test)]
pub(crate) fn lockstep_depth(layout_depths: &[u32]) -> f64 {
    if layout_depths.is_empty() {
        return 0.0;
    }
    let charged: u64 = layout_depths
        .chunks(WARP_LANES)
        .map(|group| group.len() as u64 * u64::from(group.iter().copied().max().unwrap_or(0)))
        .sum();
    charged as f64 / layout_depths.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic mixed-depth forest's depths (depths 2–11).
    fn depths(n: usize) -> Vec<usize> {
        (0..n).map(|t| 2 + (t * 7 + t / 3) % 10).collect()
    }

    /// A deterministic scrambled LSH order of `n` trees.
    fn lsh(n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&t| (t * 37 + 11) % n);
        order
    }

    fn lockstep(order: &[usize], depths: &[usize]) -> f64 {
        let layout: Vec<u32> = order.iter().map(|&t| depths[t] as u32).collect();
        lockstep_depth(&layout)
    }

    #[test]
    fn grouped_order_is_a_permutation() {
        for n in [1, 31, 32, 33, 64, 100, 257] {
            let mut order = group_by_depth(&lsh(n), &depths(n));
            order.sort_unstable();
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "{n} trees");
        }
    }

    #[test]
    fn one_warp_of_trees_keeps_the_lsh_order() {
        for n in [1, 10, 32] {
            assert_eq!(group_by_depth(&lsh(n), &depths(n)), lsh(n));
        }
    }

    #[test]
    fn groups_keep_lsh_order_and_follow_their_first_members_rank() {
        let n = 150;
        let (lsh, depths) = (lsh(n), depths(n));
        let rank = |t: usize| lsh.iter().position(|&u| u == t).unwrap();
        let order = group_by_depth(&lsh, &depths);
        let groups: Vec<Vec<usize>> = order
            .chunks(WARP_LANES)
            .map(|g| g.iter().map(|&t| rank(t)).collect())
            .collect();
        for g in &groups {
            assert!(g.windows(2).all(|w| w[0] < w[1]), "group out of LSH order: {g:?}");
        }
        let full_groups = &groups[..groups.len() - 1];
        assert!(full_groups.windows(2).all(|w| w[0][0] < w[1][0]));
        // The partial group holds the shallowest trees.
        let (full, partial) = order.split_at(n - n % WARP_LANES);
        let depth_of = |t: &usize| depths[*t];
        assert!(partial.iter().map(depth_of).max() <= full.iter().map(depth_of).min());
    }

    #[test]
    fn each_group_is_a_depth_band() {
        // Deepest-first cut: every tree of an earlier depth band is at least
        // as deep as every tree of a later one.
        let n = 200;
        let (lsh, depths) = (lsh(n), depths(n));
        let order = group_by_depth(&lsh, &depths);
        let mut bands: Vec<(usize, usize)> = order
            .chunks(WARP_LANES)
            .map(|g| {
                let d = g.iter().map(|&t| depths[t]);
                (d.clone().min().unwrap(), d.max().unwrap())
            })
            .collect();
        bands.sort_by_key(|&(min, max)| std::cmp::Reverse((max, min)));
        assert!(bands.windows(2).all(|w| w[0].0 >= w[1].1), "{bands:?}");
    }

    #[test]
    fn grouping_never_raises_the_lockstep_depth() {
        for n in [33, 64, 100, 257, 400] {
            let (lsh, depths) = (lsh(n), depths(n));
            let grouped = lockstep(&group_by_depth(&lsh, &depths), &depths);
            let before = lockstep(&lsh, &depths);
            assert!(grouped <= before, "{n} trees: {grouped} > {before}");
        }
        let (lsh, depths) = (lsh(400), depths(400));
        assert!(lockstep(&group_by_depth(&lsh, &depths), &depths) < lockstep(&lsh, &depths));
    }
}

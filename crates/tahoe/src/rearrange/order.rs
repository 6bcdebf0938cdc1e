//! Similarity-driven tree ordering (paper §4.2, "Map trees into groups and
//! sort").
//!
//! The paper places tree `A` next to tree `B` when their collision count is
//! the largest among `A`'s counts (Fig. 3: order `T2 T3 T1` because `T2&T3`
//! collide most, then `T1&T3`). We implement that as a greedy chain: start
//! from the globally most-similar pair, then repeatedly append the unplaced
//! tree most similar to the chain's tail; when the tail has no similar
//! unplaced tree, restart from the most similar remaining pair (or any
//! remaining tree). Ties break toward lower indices for determinism.
//!
//! The chain never lists pairs: a restart scans the matrix for its best
//! pair of unplaced trees, and each step takes a masked argmax over the
//! tail's row, in which placed trees read as count zero.

use super::lsh::CollisionMatrix;

/// Produces a tree order (layout position → original index) from collision
/// counts.
#[must_use]
pub fn order_by_similarity(counts: &CollisionMatrix) -> Vec<usize> {
    let n_trees = counts.n_trees();
    // All-ones while a tree is unplaced, zero once placed: a count ANDed
    // with its tree's mask is the count the chain may still use.
    let mut unplaced = vec![u32::MAX; n_trees];
    let mut order = Vec::with_capacity(n_trees);
    while order.len() < n_trees {
        // Start (or restart) the chain from the best unplaced pair.
        let Some((a, mut tail)) = best_pair(counts, &unplaced) else {
            // No collision pairs left; append remaining trees in index order.
            order.extend((0..n_trees).filter(|&t| unplaced[t] != 0));
            break;
        };
        for t in [a, tail] {
            unplaced[t] = 0;
            order.push(t);
        }
        // Extend the chain while the tail has similar unplaced trees.
        while let Some(t) = masked_argmax(counts.row(tail), &unplaced) {
            unplaced[t] = 0;
            order.push(t);
            tail = t;
        }
    }
    order
}

/// `row[t] & mask[t]`: the counts of the trees the mask leaves in.
fn masked<'a>(row: &'a [u32], mask: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
    row.iter().zip(mask).map(|(&c, &m)| c & m)
}

/// The lowest index holding the largest nonzero masked count, if any.
///
/// Both passes are branch-free over the row: a masked maximum, then the
/// first position that reaches it.
fn masked_argmax(row: &[u32], mask: &[u32]) -> Option<usize> {
    let best = masked(row, mask).fold(0, u32::max);
    if best == 0 {
        return None;
    }
    masked(row, mask).position(|c| c == best)
}

/// The pair `(a, b)`, `a < b`, of unplaced trees with the highest nonzero
/// count, lexicographically first among ties (the chain's restart point):
/// the first row to reach the highest masked maximum, at its argmax.
fn best_pair(counts: &CollisionMatrix, unplaced: &[u32]) -> Option<(usize, usize)> {
    let upper = |a: usize| (&counts.row(a)[a + 1..], &unplaced[a + 1..]);
    let mut best: Option<(u32, usize)> = None;
    for a in (0..counts.n_trees()).filter(|&a| unplaced[a] != 0) {
        let (row, mask) = upper(a);
        let max = masked(row, mask).fold(0, u32::max);
        if max > best.map_or(0, |(c, _)| c) {
            best = Some((max, a));
        }
    }
    let (_, a) = best?;
    let (row, mask) = upper(a);
    Some((a, a + 1 + masked_argmax(row, mask)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(n: usize, pairs: &[((usize, usize), u32)]) -> CollisionMatrix {
        let mut m = CollisionMatrix::new(n);
        for &((a, b), c) in pairs {
            m.set(a, b, c);
        }
        m
    }

    /// The ordering as first written: a comparison sort of the pair list
    /// and a per-candidate count lookup on every chain step.
    fn reference_order(m: &CollisionMatrix) -> Vec<usize> {
        let n = m.n_trees();
        let mut pairs: Vec<(u32, (usize, usize))> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|&(a, b)| m.get(a, b) > 0)
            .map(|(a, b)| (m.get(a, b), (a, b)))
            .collect();
        pairs.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        let mut placed = vec![false; n];
        let mut order = Vec::new();
        let mut cursor = 0;
        while order.len() < n {
            let mut tail = None;
            while let Some(&(_, (a, b))) = pairs.get(cursor) {
                if !placed[a] && !placed[b] {
                    placed[a] = true;
                    placed[b] = true;
                    order.extend([a, b]);
                    tail = Some(b);
                    break;
                }
                cursor += 1;
            }
            let Some(mut tail) = tail else {
                order.extend((0..n).filter(|&t| !placed[t]));
                break;
            };
            while let Some(t) = (0..n)
                .filter(|&t| !placed[t] && m.get(tail, t) > 0)
                .max_by_key(|&t| (m.get(tail, t), std::cmp::Reverse(t)))
            {
                placed[t] = true;
                order.push(t);
                tail = t;
            }
        }
        order
    }

    #[test]
    fn fig3_example_order() {
        // Paper Fig. 3: collisions T1&T2 = 0, T2&T3 = 2, T1&T3 = 1
        // → order T2, T3, T1 (indices 1, 2, 0).
        let c = counts(3, &[((0, 1), 0), ((1, 2), 2), ((0, 2), 1)]);
        assert_eq!(order_by_similarity(&c), vec![1, 2, 0]);
    }

    #[test]
    fn order_is_a_permutation() {
        let c = counts(7, &[((0, 3), 5), ((1, 2), 4), ((4, 5), 1)]);
        let order = order_by_similarity(&c);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn chain_follows_similarity() {
        // 0-1 strongest, then 1-2, then 2-3.
        let c = counts(4, &[((0, 1), 9), ((1, 2), 5), ((2, 3), 3)]);
        assert_eq!(order_by_similarity(&c), vec![0, 1, 2, 3]);
    }

    #[test]
    fn no_collisions_preserves_index_order() {
        assert_eq!(
            order_by_similarity(&CollisionMatrix::new(4)),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn disjoint_groups_form_separate_chains() {
        let c = counts(4, &[((2, 3), 9), ((0, 1), 8)]);
        assert_eq!(order_by_similarity(&c), vec![2, 3, 0, 1]);
    }

    #[test]
    fn empty_input() {
        assert!(order_by_similarity(&CollisionMatrix::new(0)).is_empty());
    }

    #[test]
    fn order_matches_the_comparison_sort_reference() {
        // Dense, sparse and tie-heavy random matrices.
        let mut z = 0x2545_F491_4F6C_DD1Du64;
        for (n, max, density) in [
            (2, 3, 2),
            (9, 2, 2),
            (30, 4, 3),
            (60, 64, 2),
            (61, 1, 8),
            (40, 9, 1),
        ] {
            let mut m = CollisionMatrix::new(n);
            for a in 0..n {
                for b in a + 1..n {
                    z ^= z << 13;
                    z ^= z >> 7;
                    z ^= z << 17;
                    if z.is_multiple_of(density) {
                        m.set(a, b, (z >> 32) as u32 % max + 1);
                    }
                }
            }
            assert_eq!(
                order_by_similarity(&m),
                reference_order(&m),
                "n {n} max {max}"
            );
        }
    }
}

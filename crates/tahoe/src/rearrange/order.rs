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
//! Counts are small integers, so the restart list — every colliding pair,
//! highest count first, then lexicographic — is a counting sort into one
//! bucket per count rather than a comparison sort.

use super::lsh::CollisionMatrix;

/// Produces a tree order (layout position → original index) from collision
/// counts.
#[must_use]
pub fn order_by_similarity(counts: &CollisionMatrix) -> Vec<usize> {
    let n_trees = counts.n_trees();
    let mut placed = vec![false; n_trees];
    let mut order = Vec::with_capacity(n_trees);
    let pairs = pairs_by_count(counts);
    let mut pair_cursor = 0usize;
    while order.len() < n_trees {
        // Start (or restart) the chain from the best unplaced pair.
        let mut tail: Option<usize> = None;
        while pair_cursor < pairs.len() {
            let (a, b) = (pairs[pair_cursor].0 as usize, pairs[pair_cursor].1 as usize);
            if !placed[a] && !placed[b] {
                placed[a] = true;
                placed[b] = true;
                order.push(a);
                order.push(b);
                tail = Some(b);
                break;
            }
            pair_cursor += 1;
        }
        let Some(mut tail) = tail else {
            // No collision pairs left; append remaining trees in index order.
            order.extend((0..n_trees).filter(|&t| !placed[t]));
            break;
        };
        // Extend the chain while the tail has similar unplaced trees.
        loop {
            let row = counts.row(tail);
            let mut best: Option<(u32, usize)> = None;
            for (t, &c) in row.iter().enumerate() {
                if c > best.map_or(0, |(bc, _)| bc) && !placed[t] {
                    best = Some((c, t));
                }
            }
            match best {
                Some((_, t)) => {
                    placed[t] = true;
                    order.push(t);
                    tail = t;
                }
                None => break,
            }
        }
    }
    order
}

/// Every pair `(a, b)`, `a < b`, with a nonzero count: highest count first,
/// then lexicographic. Filling the buckets in lexicographic pair order keeps
/// each bucket lexicographic.
fn pairs_by_count(counts: &CollisionMatrix) -> Vec<(u32, u32)> {
    let n = counts.n_trees();
    let upper = |a: usize| &counts.row(a)[a + 1..];
    let max = (0..n).flat_map(upper).copied().max().unwrap_or(0) as usize;
    let mut bucket_len = vec![0usize; max + 1];
    for a in 0..n {
        for &c in upper(a) {
            bucket_len[c as usize] += 1;
        }
    }
    // Bucket `c` starts after every bucket with a higher count; count 0 is
    // never listed.
    let mut next = vec![0usize; max + 1];
    let mut total = 0;
    for c in (1..=max).rev() {
        next[c] = total;
        total += bucket_len[c];
    }
    let mut pairs = vec![(0u32, 0u32); total];
    for a in 0..n {
        for (b, &c) in upper(a).iter().enumerate() {
            if c > 0 {
                pairs[next[c as usize]] = (a as u32, (a + 1 + b) as u32);
                next[c as usize] += 1;
            }
        }
    }
    pairs
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
    fn pairs_are_bucketed_by_descending_count_then_lexicographic() {
        let c = counts(4, &[((2, 3), 2), ((0, 3), 5), ((0, 1), 2), ((1, 2), 5)]);
        assert_eq!(pairs_by_count(&c), vec![(0, 3), (1, 2), (0, 1), (2, 3)]);
    }

    #[test]
    fn bucketed_order_matches_the_comparison_sort_reference() {
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

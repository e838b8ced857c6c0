/// Keyed squared-distance bounds in one `Vec` sorted by (bound, key), for
/// branch-and-bound kNN searches whose radius is the k-th smallest upper
/// bound over their candidates.
///
/// The radius is read after almost every step and changes far less often,
/// so it is kept an index: [`insert`](Self::insert) and
/// [`remove`](Self::remove) find their slot by binary search, and
/// [`kth`](Self::kth) and [`first`](Self::first) read the front. Equal
/// bounds are ordered by key, so the k best are well defined whatever the
/// order of changes. A pair may be held more than once.
#[derive(Debug)]
pub struct BoundOrder<K> {
    sorted: Vec<(f64, K)>,
}

impl<K> Default for BoundOrder<K> {
    fn default() -> Self {
        Self { sorted: Vec::new() }
    }
}

impl<K: Ord + Copy> BoundOrder<K> {
    /// Holds `key` at `bound`. Panics on a NaN bound.
    pub fn insert(&mut self, bound: f64, key: K) {
        let (Ok(i) | Err(i)) = self.search(bound, key);
        self.sorted.insert(i, (bound, key));
    }

    /// Drops one copy of `key` at `bound`. Panics on a NaN bound or a pair
    /// not held, so a caller that derives a bound again for removal must
    /// derive the very value it inserted.
    pub fn remove(&mut self, bound: f64, key: K) {
        let i = self
            .search(bound, key)
            .unwrap_or_else(|_| panic!("BoundOrder::remove: no pair held at bound {bound}"));
        self.sorted.remove(i);
    }

    /// The k-th smallest bound (k ≥ 1), or ∞ while fewer than k are held.
    pub fn kth(&self, k: usize) -> f64 {
        assert!(k > 0, "BoundOrder::kth is 1-based");
        self.sorted
            .get(k - 1)
            .map_or(f64::INFINITY, |&(bound, _)| bound)
    }

    /// The k smallest pairs (all of them while fewer are held), ascending.
    pub fn first(&self, k: usize) -> &[(f64, K)] {
        &self.sorted[..k.min(self.sorted.len())]
    }

    fn search(&self, bound: f64, key: K) -> Result<usize, usize> {
        assert!(!bound.is_nan(), "BoundOrder: NaN bound");
        self.sorted.binary_search_by(|&(b, k)| {
            b.partial_cmp(&bound)
                .expect("held bounds are never NaN")
                .then(k.cmp(&key))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kth_is_infinite_until_k_are_held() {
        let mut order = BoundOrder::default();
        assert_eq!(order.kth(1), f64::INFINITY);
        order.insert(0.5, 7u32);
        order.insert(0.25, 9);
        assert_eq!(order.kth(1), 0.25);
        assert_eq!(order.kth(2), 0.5);
        assert_eq!(order.kth(3), f64::INFINITY);
        assert_eq!(order.first(5), &[(0.25, 9), (0.5, 7)]);
        order.remove(0.25, 9);
        assert_eq!(order.first(1), &[(0.5, 7)]);
    }

    #[test]
    #[should_panic(expected = "no pair held")]
    fn removing_a_pair_never_inserted_panics() {
        let mut order = BoundOrder::default();
        order.insert(0.5, 1u64);
        // Same key, another bound: the bound is part of the identity.
        order.remove(0.25, 1);
    }

    #[test]
    #[should_panic(expected = "NaN bound")]
    fn inserting_a_nan_bound_panics() {
        BoundOrder::default().insert(f64::NAN, 1u64);
    }

    #[test]
    #[should_panic(expected = "NaN bound")]
    fn removing_a_nan_bound_panics() {
        let mut order = BoundOrder::default();
        order.insert(0.5, 1u64);
        order.remove(f64::NAN, 1);
    }

    /// One step of a random insert/remove sequence: insert (bound level,
    /// key), or remove the `i % len`-th live pair.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8, u8),
        Remove(u32),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..4, 0u8..6).prop_map(|(b, key)| Op::Insert(b, key)),
            any::<u32>().prop_map(Op::Remove),
        ]
    }

    proptest! {
        /// Against a full sort of the live (bound, key) multiset. Four
        /// bound levels and six keys make tied bounds, and repeated
        /// pairs, common.
        #[test]
        fn reads_equal_a_full_sort(
            ops in prop::collection::vec(arb_op(), 1..60),
            k in 1usize..8,
        ) {
            let mut order = BoundOrder::default();
            let mut live: Vec<(f64, u8)> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(b, key) => {
                        let bound = f64::from(b) * 0.25;
                        order.insert(bound, key);
                        live.push((bound, key));
                    }
                    Op::Remove(i) => {
                        if live.is_empty() {
                            continue;
                        }
                        let (bound, key) = live.swap_remove(i as usize % live.len());
                        order.remove(bound, key);
                    }
                }
                let mut sorted = live.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let want = sorted.get(k - 1).map_or(f64::INFINITY, |p| p.0);
                prop_assert_eq!(order.kth(k), want);
                prop_assert_eq!(order.first(k), &sorted[..k.min(sorted.len())]);
                prop_assert_eq!(order.first(usize::MAX).len(), live.len());
            }
        }
    }
}

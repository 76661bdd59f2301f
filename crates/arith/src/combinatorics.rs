//! Combinatorics of the support-polynomial engine: set partitions
//! (kernels of valuations), counts of partial injections (assignments of
//! partition blocks to named constants), and the associated counting
//! functions (Bell, Stirling, binomial).

use crate::bigint::BigInt;

/// Calls `f(assignment, num_blocks)` once for every set partition of
/// `{0, …, m−1}`, where `assignment[i]` is the block index of element `i`
/// and blocks are numbered in order of first appearance (a restricted
/// growth string). For `m = 0` the single empty partition is visited once.
pub fn for_each_set_partition(m: usize, mut f: impl FnMut(&[usize], usize)) {
    if m == 0 {
        f(&[], 0);
        return;
    }
    let mut a = vec![0usize; m];
    // prefix_max[i] = max(a[0..=i]); a[0] is always 0.
    let mut prefix_max = vec![0usize; m];
    loop {
        f(&a, prefix_max[m - 1] + 1);
        // Find the rightmost position (excluding 0) we can increment while
        // keeping the restricted-growth property a[i] <= prefix_max[i-1] + 1.
        let mut i = m;
        loop {
            if i <= 1 {
                return;
            }
            i -= 1;
            if a[i] <= prefix_max[i - 1] {
                break;
            }
        }
        a[i] += 1;
        prefix_max[i] = prefix_max[i - 1].max(a[i]);
        for j in i + 1..m {
            a[j] = 0;
            prefix_max[j] = prefix_max[j - 1];
        }
    }
}

/// Number of set partitions of an `m`-element set (Bell number).
pub fn bell(m: usize) -> BigInt {
    // Bell triangle.
    let mut row = vec![BigInt::one()];
    for _ in 0..m {
        let mut next = Vec::with_capacity(row.len() + 1);
        next.push(row.last().unwrap().clone());
        for v in &row {
            let last = next.last().unwrap().clone();
            next.push(&last + v);
        }
        row = next;
    }
    row[0].clone()
}

/// Number of partial injections from a `blocks`-set into a `pool`-set:
/// `Σ_i C(blocks, i) · pool! / (pool − i)!`.
pub fn count_partial_injections(blocks: usize, pool: usize) -> BigInt {
    let mut total = BigInt::zero();
    for i in 0..=blocks.min(pool) {
        let mut term = binomial(blocks as u64, i as u64);
        for j in 0..i {
            term = &term * &BigInt::from((pool - j) as u64);
        }
        total = &total + &term;
    }
    total
}

/// Binomial coefficient `C(n, k)`.
pub fn binomial(n: u64, k: u64) -> BigInt {
    if k > n {
        return BigInt::zero();
    }
    let k = k.min(n - k);
    let mut acc = BigInt::one();
    for i in 0..k {
        acc = &acc * &BigInt::from(n - i);
        let (q, r) = acc.div_rem(&BigInt::from(i + 1));
        debug_assert!(r.is_zero());
        acc = q;
    }
    acc
}

/// Stirling number of the second kind `S(n, k)`: partitions of an
/// `n`-set into exactly `k` nonempty blocks.
pub fn stirling2(n: usize, k: usize) -> BigInt {
    if n == 0 && k == 0 {
        return BigInt::one();
    }
    if k == 0 || k > n {
        return BigInt::zero();
    }
    // DP over rows.
    let mut row = vec![BigInt::zero(); k + 1];
    row[0] = BigInt::one(); // S(0, 0)
    for _i in 1..=n {
        let mut next = vec![BigInt::zero(); k + 1];
        for j in 1..=k {
            // S(i, j) = j·S(i−1, j) + S(i−1, j−1)
            next[j] = &(&BigInt::from(j as u64) * &row[j]) + &row[j - 1];
        }
        row = next;
    }
    row[k].clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bell_numbers() {
        let expected = [1u64, 1, 2, 5, 15, 52, 203, 877, 4140];
        for (m, &e) in expected.iter().enumerate() {
            assert_eq!(bell(m), BigInt::from(e), "bell({m})");
        }
    }

    #[test]
    fn partitions_enumerated_exactly_bell_times() {
        for m in 0..=7 {
            let mut n = 0u64;
            for_each_set_partition(m, |_, _| n += 1);
            assert_eq!(BigInt::from(n), bell(m), "m = {m}");
        }
    }

    #[test]
    fn partitions_are_valid_rgs_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for_each_set_partition(4, |a, nb| {
            assert_eq!(a[0], 0);
            let mut maxsofar = 0;
            for i in 1..a.len() {
                assert!(a[i] <= maxsofar + 1, "not an RGS: {a:?}");
                maxsofar = maxsofar.max(a[i]);
            }
            assert_eq!(nb, maxsofar + 1);
            assert!(seen.insert(a.to_vec()), "duplicate partition {a:?}");
        });
        assert_eq!(seen.len(), 15);
    }

    #[test]
    fn binomials() {
        assert_eq!(binomial(5, 2), BigInt::from(10u32));
        assert_eq!(binomial(5, 0), BigInt::one());
        assert_eq!(binomial(5, 6), BigInt::zero());
        assert_eq!(binomial(60, 30).to_string(), "118264581564861424");
    }

    #[test]
    fn stirling_numbers() {
        assert_eq!(stirling2(0, 0), BigInt::one());
        assert_eq!(stirling2(4, 2), BigInt::from(7u32));
        assert_eq!(stirling2(5, 3), BigInt::from(25u32));
        assert_eq!(stirling2(3, 0), BigInt::zero());
        assert_eq!(stirling2(3, 4), BigInt::zero());
        // Σ_k S(m, k) = Bell(m)
        for m in 0..=8 {
            let mut total = BigInt::zero();
            for k in 0..=m {
                total = &total + &stirling2(m, k);
            }
            assert_eq!(total, bell(m));
        }
    }

    #[test]
    fn partition_block_counts_match_stirling() {
        for m in 1..=6 {
            let mut by_blocks = vec![0u64; m + 1];
            for_each_set_partition(m, |_, nb| by_blocks[nb] += 1);
            for (k, &count) in by_blocks.iter().enumerate() {
                assert_eq!(BigInt::from(count), stirling2(m, k), "m={m} k={k}");
            }
        }
    }
}

//! Deterministic seeded k-medoids over window-signature vectors.
//!
//! PAM-style: k-medoids++ seeding (squared-distance-weighted draws from a
//! [`freac_rand::Rng64`]), then alternating assign/update sweeps until the
//! medoid set is stable. Every tie — nearest medoid, best medoid within a
//! cluster, farthest witness — breaks toward the lower index, so the
//! clustering is a pure function of the signatures and the seed.

use freac_rand::Rng64;

/// Pairwise Euclidean distances between `n` signature points, precomputed
/// once. The matrix is symmetric with a zero diagonal, so only the strict
/// upper triangle is stored, row by row: `n (n - 1) / 2` entries.
pub(crate) struct DistMatrix {
    n: usize,
    d: Vec<f64>,
}

impl DistMatrix {
    /// Distances between every pair of `points` (rows of equal dimension),
    /// each computed once with the lower index first.
    pub(crate) fn new(points: &[Vec<f64>]) -> Self {
        let n = points.len();
        let mut d = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                d.push(euclid(&points[i], &points[j]));
            }
        }
        DistMatrix { n, d }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        // Rows before `a` hold `(n - 1) + … + (n - a)` entries.
        self.d[a * (2 * self.n - a - 1) / 2 + (b - a - 1)]
    }

    pub(crate) fn len(&self) -> usize {
        self.n
    }
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The result of clustering: `medoids[c]` is the representative point of
/// cluster `c`, and `assign[i]` is the cluster of point `i`.
pub(crate) struct Clustering {
    pub(crate) medoids: Vec<usize>,
    pub(crate) assign: Vec<usize>,
}

impl Clustering {
    /// Members of cluster `c` in ascending point order.
    pub(crate) fn members(&self, c: usize) -> Vec<usize> {
        members(&self.assign, c)
    }

    /// The member of cluster `c` farthest from its medoid (the "witness"
    /// whose full-fidelity simulation anchors the error bound), or `None`
    /// for singleton clusters.
    pub(crate) fn witness(&self, c: usize, dist: &DistMatrix) -> Option<usize> {
        let medoid = self.medoids[c];
        let mut best: Option<(f64, usize)> = None;
        for i in self.members(c) {
            if i == medoid {
                continue;
            }
            let d = dist.get(i, medoid);
            // Strict `>` keeps the lowest index on ties.
            if best.is_none_or(|(bd, _)| d > bd) {
                best = Some((d, i));
            }
        }
        best.map(|(_, i)| i)
    }
}

/// Clusters `dist.len()` points into (at most) `k` clusters.
///
/// Seeding: the first medoid is the most central point (minimum summed
/// distance); each further medoid is drawn with probability proportional
/// to its squared distance to the nearest chosen medoid (k-medoids++), so
/// distinct behavior regimes each get a representative. Refinement then
/// alternates nearest-medoid assignment with per-cluster recentering until
/// a fixpoint (bounded at 32 sweeps; PAM converges in a handful).
pub(crate) fn k_medoids(dist: &DistMatrix, k: usize, seed: u64) -> Clustering {
    let n = dist.len();
    assert!(n > 0, "k_medoids needs at least one point");
    let k = k.clamp(1, n);
    let mut rng = Rng64::new(seed);

    // Seed medoids.
    let mut medoids: Vec<usize> = Vec::with_capacity(k);
    medoids.push(most_central(dist, &(0..n).collect::<Vec<_>>()));
    while medoids.len() < k {
        let weights: Vec<f64> = (0..n)
            .map(|i| {
                let d = medoids
                    .iter()
                    .map(|&m| dist.get(i, m))
                    .fold(f64::INFINITY, f64::min);
                d * d
            })
            .collect();
        let pick = rng.weighted_f64(&weights);
        if medoids.contains(&pick) {
            // Degenerate draw (identical points): take the lowest index not
            // yet chosen so the medoid set still reaches size k.
            let fallback = (0..n).find(|i| !medoids.contains(i)).expect("k <= n");
            medoids.push(fallback);
        } else {
            medoids.push(pick);
        }
    }

    // Refine.
    let mut assign = vec![0usize; n];
    for _ in 0..32 {
        for (i, a) in assign.iter_mut().enumerate() {
            *a = nearest(dist, &medoids, i);
        }
        let mut changed = false;
        for (c, medoid) in medoids.iter_mut().enumerate() {
            let members = members(&assign, c);
            if members.is_empty() {
                continue;
            }
            let best = most_central(dist, &members);
            if *medoid != best {
                *medoid = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (i, a) in assign.iter_mut().enumerate() {
        *a = nearest(dist, &medoids, i);
    }
    Clustering { medoids, assign }
}

/// The point of the non-empty ascending `points` with the least summed
/// distance to the others (the lowest on ties).
fn most_central(dist: &DistMatrix, points: &[usize]) -> usize {
    let spread = |a: usize| -> f64 { points.iter().map(|&j| dist.get(a, j)).sum() };
    points
        .iter()
        .map(|&a| (spread(a), a))
        .min_by(|x, y| x.0.partial_cmp(&y.0).expect("distances are finite"))
        .expect("non-empty points")
        .1
}

/// The points `assign` puts in cluster `c`, ascending.
fn members(assign: &[usize], c: usize) -> Vec<usize> {
    (0..assign.len()).filter(|&i| assign[i] == c).collect()
}

/// Index of the medoid slot nearest to point `i` (lowest slot on ties).
fn nearest(dist: &DistMatrix, medoids: &[usize], i: usize) -> usize {
    let mut best = 0usize;
    for c in 1..medoids.len() {
        if dist.get(i, medoids[c]) < dist.get(i, medoids[best]) {
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        // Four points near the origin, four near (10, 10).
        let mut pts = Vec::new();
        for i in 0..4 {
            pts.push(vec![0.1 * i as f64, 0.0]);
        }
        for i in 0..4 {
            pts.push(vec![10.0 + 0.1 * i as f64, 10.0]);
        }
        pts
    }

    #[test]
    fn triangle_returns_every_pairs_distance_both_ways() {
        let pts: Vec<Vec<f64>> = (0..7u32)
            .map(|i| vec![f64::from(i * i % 5), f64::from(i) * 0.3])
            .collect();
        let dist = DistMatrix::new(&pts);
        assert_eq!(dist.d.len(), 7 * 6 / 2);
        for i in 0..7 {
            assert_eq!(dist.get(i, i).to_bits(), 0.0f64.to_bits());
            for j in (i + 1)..7 {
                let want = euclid(&pts[i], &pts[j]).to_bits();
                assert_eq!(dist.get(i, j).to_bits(), want, "({i}, {j})");
                assert_eq!(dist.get(j, i).to_bits(), want, "({j}, {i})");
            }
        }
    }

    #[test]
    fn separable_blobs_are_split_cleanly() {
        let pts = two_blobs();
        let dist = DistMatrix::new(&pts);
        let c = k_medoids(&dist, 2, 7);
        let first = c.assign[0];
        assert!(c.assign[..4].iter().all(|&a| a == first));
        assert!(c.assign[4..].iter().all(|&a| a != first));
    }

    #[test]
    fn clustering_is_deterministic_in_the_seed() {
        let pts = two_blobs();
        let dist = DistMatrix::new(&pts);
        let a = k_medoids(&dist, 3, 42);
        let b = k_medoids(&dist, 3, 42);
        assert_eq!(a.medoids, b.medoids);
        assert_eq!(a.assign, b.assign);
    }

    #[test]
    fn k_clamps_to_the_point_count_and_identical_points_survive() {
        let pts = vec![vec![1.0, 1.0]; 3];
        let dist = DistMatrix::new(&pts);
        let c = k_medoids(&dist, 8, 0);
        assert_eq!(c.medoids.len(), 3, "k clamps to n");
        // Every point lands in some cluster.
        assert!(c.assign.iter().all(|&a| a < 3));
    }

    #[test]
    fn witness_is_the_farthest_member() {
        let pts = vec![vec![0.0], vec![0.2], vec![5.0], vec![100.0]];
        let dist = DistMatrix::new(&pts);
        let c = k_medoids(&dist, 1, 3);
        // One cluster: the witness must be the point farthest from the
        // medoid, and a singleton cluster would have none.
        let w = c.witness(0, &dist).unwrap();
        let m = c.medoids[0];
        for i in 0..4 {
            assert!(dist.get(i, m) <= dist.get(w, m));
        }
    }
}

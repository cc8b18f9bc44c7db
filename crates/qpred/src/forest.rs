//! Bagged ensemble of regression trees (an extension beyond the paper's
//! single decision tree, used for the ablation experiments).

use crate::tree::{DecisionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A bootstrap-aggregated forest of CART trees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Fits `n_trees` trees on bootstrap resamples of the training set.
    ///
    /// # Panics
    /// Panics if `n_trees == 0` or the training set is empty/ragged (see
    /// [`DecisionTree::fit`]).
    pub fn fit(x: &[Vec<f64>], y: &[f64], n_trees: usize, config: &TreeConfig, seed: u64) -> Self {
        assert!(n_trees > 0, "at least one tree required");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = x.len();
        let trees = (0..n_trees)
            .map(|_| {
                let mut bx = Vec::with_capacity(n);
                let mut by = Vec::with_capacity(n);
                for _ in 0..n {
                    let i = rng.gen_range(0..n);
                    bx.push(x[i].clone());
                    by.push(y[i]);
                }
                DecisionTree::fit(&bx, &by, config)
            })
            .collect();
        RandomForest { trees }
    }

    /// Mean prediction over all trees.
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(features)).sum::<f64>() / self.trees.len() as f64
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest has no trees (never true for a fitted forest).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_fits_step_function() {
        let x: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64 / 300.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| if r[0] < 0.5 { 0.0 } else { 10.0 }).collect();
        let f = RandomForest::fit(&x, &y, 11, &TreeConfig::default(), 7);
        assert!(f.predict(&[0.1]) < 1.0);
        assert!(f.predict(&[0.9]) > 9.0);
        assert_eq!(f.len(), 11);
    }

    #[test]
    fn forest_is_deterministic_per_seed() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i * i % 13) as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| (i % 5) as f64).collect();
        let a = RandomForest::fit(&x, &y, 5, &TreeConfig::default(), 42);
        let b = RandomForest::fit(&x, &y, 5, &TreeConfig::default(), 42);
        assert_eq!(a, b);
    }

    #[test]
    fn forest_smooths_noisy_targets() {
        // Single deep tree overfits noise; forest averages it out.
        let x: Vec<Vec<f64>> = (0..400).map(|i| vec![i as f64 / 400.0]).collect();
        let mut state = 11u64;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 2.0
        };
        let y: Vec<f64> = x.iter().map(|r| r[0] * 5.0 + noise()).collect();
        let forest = RandomForest::fit(&x, &y, 21, &TreeConfig::default(), 1);
        // Out-of-sample-ish check on clean targets.
        let rmse = (x.iter().map(|r| (forest.predict(r) - r[0] * 5.0).powi(2)).sum::<f64>() / 400.0).sqrt();
        assert!(rmse < 0.8, "rmse={rmse}");
    }
}

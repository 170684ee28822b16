//! Seeded workload inputs, generated with `ragen` before any timing and
//! handed to the program as dataset text (one `[{a},{b,c}]` ranking per
//! line, the format `rawt aggregate FILE` reads).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rank_core::{Dataset, Ranking};

/// An independent generator stream for `(seed, stream)`: each input
/// family draws from its own stream, so adding one never shifts another.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Dataset text, one ranking per line.
pub fn text(data: &Dataset) -> String {
    data.rankings().iter().map(ranking_text).collect()
}

/// One ranking as a dataset line (with its newline).
pub fn ranking_text(r: &Ranking) -> String {
    format!("{r}\n")
}

/// Exactly-uniform rankings with ties (§6.1.1): the most dissimilar
/// inputs, where local searches work hardest.
pub fn uniform(n: usize, m: usize, rng: &mut StdRng) -> Dataset {
    ragen::UniformSampler::new(n).sample_dataset(n, m, rng)
}

/// `m` walks of `t` Markov steps from the identity (§6.1.2): small `t`
/// keeps the rankings similar.
pub fn markov(n: usize, m: usize, t: usize, rng: &mut StdRng) -> Dataset {
    ragen::MarkovGen::identity_seeded(n, t).dataset(m, rng)
}

/// The kind of generator behind an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Uniform,
    /// Markov walks of `t = steps_per_element · n` steps.
    Markov {
        steps_per_element: usize,
    },
}

impl Kind {
    pub fn generate(self, n: usize, m: usize, rng: &mut StdRng) -> Dataset {
        match self {
            Kind::Uniform => uniform(n, m, rng),
            Kind::Markov { steps_per_element } => markov(n, m, steps_per_element * n, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_text() {
        let a = text(&Kind::Uniform.generate(6, 3, &mut rng(5, 1)));
        let b = text(&Kind::Uniform.generate(6, 3, &mut rng(5, 1)));
        let c = text(&Kind::Uniform.generate(6, 3, &mut rng(6, 1)));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.lines().count(), 3);
    }
}

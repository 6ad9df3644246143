//! The benchmark's workloads: how each database set is generated, which
//! miner a job calls, and the sequential oracle every job is checked
//! against.

use parallel_arm::core::{generate_rules, mine, AprioriConfig, MiningResult, Rule, Support};
use parallel_arm::dataset::{Database, DatabaseBuilder, Item};
use parallel_arm::quest::{generate, LengthDist, QuestParams};

/// Rule confidence used by every job that generates rules.
pub const CONFIDENCE: f64 = 0.8;

/// Size of the QUEST base a database's transactions are sampled from,
/// in multiples of the database's size.
const BASE_FACTOR: usize = 4;

/// Which public mining entry point a job calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miner {
    /// `parallel::ccpd::try_mine` with `ParallelConfig::new(base, p)`.
    Ccpd,
    /// `vertical::try_mine_eclat_parallel` with `VerticalConfig::default()`.
    Eclat,
}

/// One named workload: a set of `n_dbs` QUEST databases, each with a
/// pattern pool of its own.
///
/// QUEST databases of one shape differ a lot from draw to draw, and
/// mostly through the pattern pool: one pool in a handful yields a long
/// frequent pattern and ten times the rules of the others. So the pools
/// belong to the workload and are the same in every run, and the run's
/// seed draws the transactions: database `i` is `n_txns` transactions
/// sampled from a `BASE_FACTOR * n_txns`-transaction QUEST base of pool
/// `i`. Runs of different seeds then mine different data of the same
/// make-up, and their figures differ by what the transactions and the
/// machine do, not by which pools the seed happened to pick.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub n_txns: usize,
    /// `None` is QUEST's Poisson lengths; `Some((exponent, max_factor))`
    /// is `LengthDist::ZipfTail`.
    pub zipf: Option<(f64, u32)>,
    pub min_support: f64,
    pub miner: Miner,
    /// Whether a job ends with `generate_rules(.., CONFIDENCE)`.
    pub rules: bool,
    pub n_dbs: usize,
}

/// The workloads `BENCHMARK.json` names, at full size.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "t10-count",
        n_txns: 10_000,
        zipf: None,
        min_support: 0.005,
        miner: Miner::Ccpd,
        rules: true,
        n_dbs: 24,
    },
    Workload {
        name: "zipf-eclat",
        n_txns: 2_000,
        zipf: Some((1.7, 8)),
        min_support: 0.005,
        miner: Miner::Eclat,
        rules: false,
        n_dbs: 24,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The reduced variant smoke mode runs: two databases instead of the
    /// full set. Each keeps its full size, because shrinking a database
    /// at a fixed relative support drops the absolute support towards 1,
    /// where the number of frequent itemsets explodes.
    pub fn smoke(self) -> Workload {
        Workload { n_dbs: 2, ..self }
    }

    /// QUEST parameters of the base of database `i`: pool `i` of the
    /// workload, the same in every run.
    pub fn base_params(&self, i: usize) -> QuestParams {
        let d = BASE_FACTOR * self.n_txns;
        let mut p = QuestParams::paper(10, 4, d).with_seed(mix(POOL_SEED, self.name, i));
        if let Some((exponent, max_factor)) = self.zipf {
            p = p.with_length_dist(LengthDist::ZipfTail {
                exponent,
                max_factor,
            });
        }
        p
    }

    /// Database `i` of the set drawn from `seed`: `n_txns` transactions of
    /// base `i`, chosen by a seeded partial Fisher-Yates shuffle and kept
    /// in base order.
    pub fn database(&self, seed: u64, i: usize) -> Database {
        let base = generate(&self.base_params(i));
        let mut pick: Vec<usize> = (0..base.len()).collect();
        let mut h = mix(seed, self.name, i);
        for j in 0..self.n_txns {
            h = splitmix(h);
            let k = j + (h % (pick.len() - j) as u64) as usize;
            pick.swap(j, k);
        }
        let chosen = &mut pick[..self.n_txns];
        chosen.sort_unstable();
        let mut b = DatabaseBuilder::with_capacity(base.n_items(), self.n_txns, 10);
        for &t in chosen.iter() {
            b.push(base.transaction(t).iter().copied())
                .expect("items of a QUEST base are in range");
        }
        b.finish()
    }

    /// The sequential Apriori configuration with this workload's support;
    /// every other knob at its default.
    pub fn apriori(&self) -> AprioriConfig {
        AprioriConfig {
            min_support: Support::Fraction(self.min_support),
            ..AprioriConfig::default()
        }
    }

    /// One-line description for the run header.
    pub fn describe(&self) -> String {
        let lengths = match self.zipf {
            None => "Poisson lengths".to_string(),
            Some((e, m)) => format!("ZipfTail{{exponent: {e}, max_factor: {m}}}"),
        };
        let miner = match self.miner {
            Miner::Ccpd => "ccpd::try_mine",
            Miner::Eclat => "vertical::try_mine_eclat_parallel",
        };
        let rules = if self.rules {
            format!(" + generate_rules({CONFIDENCE})")
        } else {
            String::new()
        };
        format!(
            "{} databases T10.I4 N=1000 L=2000 D={} {lengths}, minsup {}%, load + {miner}{rules}",
            self.n_dbs,
            self.n_txns,
            self.min_support * 100.0
        )
    }
}

/// Seed of the pattern pools: fixed, so every run mines the same pools.
const POOL_SEED: u64 = 0x5EED_CCDD;

/// A SplitMix64 hash of a seed, a workload name and a database index:
/// the pool seed of a base, or the sampling seed of a run's database.
fn mix(seed: u64, name: &str, i: usize) -> u64 {
    let mut h = seed;
    for b in name.bytes().chain((i as u64).to_le_bytes()) {
        h = splitmix(h ^ b as u64);
    }
    h
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-independent fingerprint of a job's output: how many
/// itemsets and rules it produced and a wrapping sum of per-element
/// hashes, so two outputs agree exactly when they hold the same
/// (itemset, support) and (rule) elements, whatever their order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub itemsets: u64,
    pub itemset_sum: u64,
    pub rules: u64,
    pub rule_sum: u64,
}

impl Fingerprint {
    /// Adds one (itemset, support) element.
    pub fn add_itemset(&mut self, items: &[Item], support: u32) {
        self.itemsets += 1;
        self.itemset_sum = self
            .itemset_sum
            .wrapping_add(hash_words(items.iter().copied().chain([u32::MAX, support])));
    }

    /// Adds every frequent itemset of a level-wise result.
    pub fn add_result(&mut self, result: &MiningResult) {
        for level in &result.levels {
            for (items, support) in level.iter() {
                self.add_itemset(items, support);
            }
        }
    }

    /// Adds every rule.
    pub fn add_rules(&mut self, rules: &[Rule]) {
        for r in rules {
            self.rules += 1;
            let conf = r.confidence.to_bits();
            let words = r
                .antecedent
                .iter()
                .copied()
                .chain([u32::MAX])
                .chain(r.consequent.iter().copied())
                .chain([u32::MAX, r.support, conf as u32, (conf >> 32) as u32]);
            self.rule_sum = self.rule_sum.wrapping_add(hash_words(words));
        }
    }

    /// Serialized form passed from the run to each job process.
    pub fn encode(&self) -> String {
        format!(
            "{}:{}:{}:{}",
            self.itemsets, self.itemset_sum, self.rules, self.rule_sum
        )
    }

    /// Inverse of [`Fingerprint::encode`].
    pub fn decode(s: &str) -> Option<Fingerprint> {
        let v: Vec<u64> = s
            .split(':')
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        match v[..] {
            [itemsets, itemset_sum, rules, rule_sum] => Some(Fingerprint {
                itemsets,
                itemset_sum,
                rules,
                rule_sum,
            }),
            _ => None,
        }
    }
}

fn hash_words(words: impl Iterator<Item = u32>) -> u64 {
    words.fold(0x243F_6A88_85A3_08D3, |h, w| splitmix(h ^ w as u64))
}

/// The expected fingerprint of a job on `db`, from sequential
/// `arm_core::mine` and `generate_rules`, which share no code path with
/// the parallel drivers under test.
pub fn oracle(w: &Workload, db: &Database) -> Fingerprint {
    let result = mine(db, &w.apriori());
    let mut fp = Fingerprint::default();
    fp.add_result(&result);
    if w.rules {
        fp.add_rules(&generate_rules(&result, CONFIDENCE));
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_sets_are_seeded() {
        for (i, a) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|b| b.name != a.name));
        }
        let w = Workload {
            n_txns: 200,
            ..Workload::named("zipf-eclat").unwrap()
        };
        assert_eq!(w.database(7, 3), w.database(7, 3));
        assert_eq!(w.database(7, 3).len(), 200);
        assert_ne!(
            w.database(7, 3),
            w.database(8, 3),
            "the seed draws the data"
        );
        assert_ne!(w.database(7, 3), w.database(7, 4));
        assert_ne!(w.base_params(3).seed, w.base_params(4).seed);
        let t = Workload::named("t10-count").unwrap();
        assert_ne!(w.base_params(3).seed, t.base_params(3).seed);
    }

    #[test]
    fn fingerprint_ignores_order_and_sees_support() {
        let mut a = Fingerprint::default();
        a.add_itemset(&[1, 2], 5);
        a.add_itemset(&[3], 9);
        let mut b = Fingerprint::default();
        b.add_itemset(&[3], 9);
        b.add_itemset(&[1, 2], 5);
        assert_eq!(a, b);
        let mut c = Fingerprint::default();
        c.add_itemset(&[3], 9);
        c.add_itemset(&[1, 2], 6);
        assert_ne!(a, c);
        assert_eq!(Fingerprint::decode(&a.encode()), Some(a));
        assert_eq!(Fingerprint::decode("1:2:3"), None);
    }
}

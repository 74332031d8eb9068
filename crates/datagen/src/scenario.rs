//! The workload matrix: seeded scenario generation across scale, tree
//! shape, vocabulary skew, and tenancy axes.
//!
//! ROADMAP item 5: the 43-query / 2k-record seed workload proves speed
//! but not generality. A [`ScenarioSpec`] names one cell of a matrix —
//! `scale × shape × skew × tenancy` — and [`ScenarioSpec::generate`]
//! deterministically expands it into a corpus tree plus a query set
//! that covers the full operator grammar (plain keywords, `"phrase"`
//! co-occurrence, `-exclusion`, `label:filter`, and adversarial
//! high-document-frequency pairs). The `matrix` bench sweeps
//! [`ScenarioSpec::matrix`] on every backend and scores result quality
//! per cell; CI runs the [`ScenarioSpec::smoke`] subset.
//!
//! Everything is deterministic in [`ScenarioSpec::seed`]: the same spec
//! always yields a byte-identical tree and query set (pinned by
//! `tests/matrix_determinism.rs`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use xks_xmltree::{TreeBuilder, XmlTree};

use crate::freq::{sample_hubs, zipf_counts, TextCorpus};
use crate::vocab::zipf_text_block;

/// Default seed shared by every committed matrix cell. Part of the
/// golden-digest contract: changing it invalidates
/// `tests/golden/matrix_digest.txt`.
pub const MATRIX_SEED: u64 = 0x2009_EDB7;

/// Records in a scale-1 corpus. Scale multiplies this, so scale 100 is
/// a 6000-record corpus — big enough to exercise sharded search and
/// posting-list skew, small enough to generate in-process.
pub const BASE_RECORDS: usize = 60;

/// Background words per text block.
const BLOCK_WORDS: usize = 6;

/// Planted vocabulary ranks per tenant.
const VOCAB_RANKS: usize = 40;

/// Fan-out of a [`Shape::Wide`] record (leaf children besides the
/// title).
const WIDE_FANOUT: usize = 12;

/// Tree shape of each record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `rec → (title, body)` — the flat bibliography profile.
    Flat,
    /// `rec → (title, sec → sec → … → p)` — a nesting chain whose depth
    /// cycles over 3..=7, stressing Dewey prefix work and ancestor
    /// walks.
    Deep,
    /// `rec → (title, f × 12)` — broad sibling lists, stressing the
    /// child-merge in the anchor pass and contributor pruning.
    Wide,
}

impl Shape {
    /// Lowercase axis token used in scenario names.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Shape::Flat => "flat",
            Shape::Deep => "deep",
            Shape::Wide => "wide",
        }
    }

    /// Text blocks each record consumes (title + content blocks).
    fn blocks_per_record(self) -> usize {
        match self {
            Shape::Flat | Shape::Deep => 2,
            Shape::Wide => 1 + WIDE_FANOUT,
        }
    }
}

/// Planted-vocabulary frequency profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    /// Every planted word gets the same count — all posting lists equal,
    /// keeping the planner on the merge path.
    Uniform,
    /// Zipf exponent 1.2 — head ranks become stop-word-like, the regime
    /// the galloping intersection and shard skipping target.
    Zipf,
}

impl Skew {
    /// Lowercase axis token used in scenario names.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Skew::Uniform => "uniform",
            Skew::Zipf => "zipf",
        }
    }

    fn exponent(self) -> f64 {
        match self {
            Skew::Uniform => 0.0,
            Skew::Zipf => 1.2,
        }
    }
}

/// Corpus tenancy mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tenancy {
    /// One corpus: records are root children (the shard partition
    /// unit), vocabulary shared.
    Single,
    /// `n` tenants, each a `tenant` subtree under the root with a
    /// disjoint planted vocabulary — many small corpora served from one
    /// (sharded) store. Queries never cross tenants.
    Multi(usize),
}

impl Tenancy {
    /// Number of tenants.
    #[must_use]
    pub fn tenants(self) -> usize {
        match self {
            Tenancy::Single => 1,
            Tenancy::Multi(n) => n.max(1),
        }
    }

    /// Lowercase axis token used in scenario names.
    #[must_use]
    pub fn token(self) -> String {
        match self {
            Tenancy::Single => "single".to_owned(),
            Tenancy::Multi(n) => format!("multi{n}"),
        }
    }
}

/// Grammar class of a generated query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Plain conjunctive keywords.
    Plain,
    /// `"a b"` — both words must co-occur in one keyword node.
    Phrase,
    /// `a -b` — fragments containing `b` are filtered out.
    Exclusion,
    /// `title:a` — the keyword must be matched by a `title` node.
    Label,
    /// Head-rank (stop-word-like) terms paired with tail-rank terms:
    /// the posting-count ratios that separate merge from galloping
    /// intersection.
    Adversarial,
}

impl QueryClass {
    /// All classes, in emission order.
    pub const ALL: [QueryClass; 5] = [
        QueryClass::Plain,
        QueryClass::Phrase,
        QueryClass::Exclusion,
        QueryClass::Label,
        QueryClass::Adversarial,
    ];

    /// Lowercase class name (used in the golden digests and query-file
    /// comments).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Plain => "plain",
            QueryClass::Phrase => "phrase",
            QueryClass::Exclusion => "exclusion",
            QueryClass::Label => "label",
            QueryClass::Adversarial => "adversarial",
        }
    }

    /// Queries generated per scenario for this class.
    fn target(self) -> usize {
        match self {
            QueryClass::Plain => 6,
            QueryClass::Phrase | QueryClass::Exclusion => 4,
            QueryClass::Label | QueryClass::Adversarial => 4,
        }
    }
}

/// One cell of the workload matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Corpus scale multiplier over [`BASE_RECORDS`] (1, 10, 100).
    pub scale: u32,
    /// Record tree shape.
    pub shape: Shape,
    /// Planted-vocabulary skew.
    pub skew: Skew,
    /// Tenancy mix.
    pub tenancy: Tenancy,
    /// RNG seed; the whole scenario is deterministic in it.
    pub seed: u64,
}

impl ScenarioSpec {
    /// A spec with the committed [`MATRIX_SEED`].
    #[must_use]
    pub fn new(scale: u32, shape: Shape, skew: Skew, tenancy: Tenancy) -> Self {
        ScenarioSpec {
            scale,
            shape,
            skew,
            tenancy,
            seed: MATRIX_SEED,
        }
    }

    /// Canonical cell name, e.g. `s10-deep-zipf-multi8`.
    #[must_use]
    pub fn name(&self) -> String {
        format!(
            "s{}-{}-{}-{}",
            self.scale,
            self.shape.token(),
            self.skew.token(),
            self.tenancy.token()
        )
    }

    /// Parses a cell name produced by [`ScenarioSpec::name`] (seed is
    /// [`MATRIX_SEED`]). Returns `None` on any malformed axis.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        let mut parts = name.split('-');
        let scale = parts.next()?.strip_prefix('s')?.parse::<u32>().ok()?;
        let shape = match parts.next()? {
            "flat" => Shape::Flat,
            "deep" => Shape::Deep,
            "wide" => Shape::Wide,
            _ => return None,
        };
        let skew = match parts.next()? {
            "uniform" => Skew::Uniform,
            "zipf" => Skew::Zipf,
            _ => return None,
        };
        let tenancy = match parts.next()? {
            "single" => Tenancy::Single,
            t => Tenancy::Multi(t.strip_prefix("multi")?.parse::<usize>().ok()?),
        };
        if parts.next().is_some() || scale == 0 {
            return None;
        }
        Some(ScenarioSpec {
            scale,
            shape,
            skew,
            tenancy,
            seed: MATRIX_SEED,
        })
    }

    /// The committed 12-cell matrix: every axis varied at least once at
    /// each scale tier, without paying for the full cross-product.
    #[must_use]
    pub fn matrix() -> Vec<ScenarioSpec> {
        use Shape::{Deep, Flat, Wide};
        use Skew::{Uniform, Zipf};
        use Tenancy::{Multi, Single};
        vec![
            // Scale sweep on the canonical flat/zipf corpus.
            ScenarioSpec::new(1, Flat, Zipf, Single),
            ScenarioSpec::new(10, Flat, Zipf, Single),
            ScenarioSpec::new(100, Flat, Zipf, Single),
            // Shape sweep at 10×.
            ScenarioSpec::new(10, Deep, Zipf, Single),
            ScenarioSpec::new(10, Wide, Zipf, Single),
            // Skew sweep at 10×.
            ScenarioSpec::new(10, Flat, Uniform, Single),
            // Tenancy sweep at 10×.
            ScenarioSpec::new(10, Flat, Zipf, Multi(8)),
            ScenarioSpec::new(10, Deep, Zipf, Multi(8)),
            // Small-corner and large-corner combinations.
            ScenarioSpec::new(1, Deep, Uniform, Single),
            ScenarioSpec::new(1, Wide, Uniform, Multi(8)),
            ScenarioSpec::new(100, Deep, Zipf, Single),
            ScenarioSpec::new(100, Wide, Zipf, Multi(8)),
        ]
    }

    /// CI smoke subset: the scale-1 cells, which still cover every
    /// shape, both skews, and both tenancy mixes.
    #[must_use]
    pub fn smoke() -> Vec<ScenarioSpec> {
        Self::matrix()
            .into_iter()
            .filter(|s| s.scale == 1)
            .collect()
    }

    /// Total records across all tenants.
    #[must_use]
    pub fn records(&self) -> usize {
        BASE_RECORDS * self.scale as usize
    }

    /// Expands the cell into a corpus tree plus classed query set.
    /// Deterministic: identical specs yield byte-identical scenarios.
    #[must_use]
    pub fn generate(&self) -> Scenario {
        let mut rng = StdRng::seed_from_u64(self.seed ^ u64::from(self.scale));
        let tenants = self.tenancy.tenants();
        let per_tenant = (self.records() / tenants).max(6);
        let data: Vec<TenantData> = (0..tenants)
            .map(|t| {
                let prefix = match self.tenancy {
                    Tenancy::Single => "w".to_owned(),
                    Tenancy::Multi(_) => format!("t{t}w"),
                };
                generate_tenant(&mut rng, self, &prefix, per_tenant)
            })
            .collect();

        let tree = build_tree(self, &data);
        let queries = build_queries(self, &data);
        Scenario {
            spec: *self,
            records: per_tenant * tenants,
            tenants,
            tree,
            queries,
        }
    }
}

/// A generated scenario: the corpus and its query set.
#[derive(Debug)]
pub struct Scenario {
    /// The spec this was expanded from.
    pub spec: ScenarioSpec,
    /// Total records across all tenants.
    pub records: usize,
    /// Number of tenants.
    pub tenants: usize,
    /// The corpus.
    pub tree: XmlTree,
    /// The classed query set (every [`QueryClass`] represented).
    pub queries: Vec<ScenarioQuery>,
}

impl Scenario {
    /// Query texts of one class, in emission order.
    #[must_use]
    pub fn queries_of(&self, class: QueryClass) -> Vec<&str> {
        self.queries
            .iter()
            .filter(|q| q.class == class)
            .map(|q| q.text.as_str())
            .collect()
    }
}

/// One generated query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioQuery {
    /// Grammar class.
    pub class: QueryClass,
    /// Query text in the `SearchRequest::parse` grammar.
    pub text: String,
}

/// Per-tenant intermediate state: finished block texts plus the planted
/// vocabulary, in rank order (rank 0 = most frequent).
struct TenantData {
    /// Finished block texts, record-major (`blocks_per_record` per
    /// record, block 0 of each record is its title).
    texts: Vec<String>,
    /// Planted words by rank.
    vocab: Vec<String>,
    records: usize,
}

/// Lays out one tenant's background blocks and plants its vocabulary.
fn generate_tenant(
    rng: &mut StdRng,
    spec: &ScenarioSpec,
    prefix: &str,
    records: usize,
) -> TenantData {
    let bpr = spec.shape.blocks_per_record();
    let blocks: Vec<Vec<String>> = (0..records * bpr)
        .map(|_| zipf_text_block(rng, BLOCK_WORDS, 0.3))
        .collect();
    let mut corpus = TextCorpus::new(blocks);

    // Plant half the positions; the rest stays background so planted
    // words keep realistic neighbourhoods.
    let budget = (corpus.positions() / 2) as u64;
    let counts = zipf_counts(VOCAB_RANKS, budget, spec.skew.exponent());
    let hubs = sample_hubs(rng, corpus.len(), (corpus.len() / 30).max(3));
    let vocab: Vec<String> = (0..VOCAB_RANKS).map(|r| format!("{prefix}{r}")).collect();
    for (word, &count) in vocab.iter().zip(&counts) {
        corpus.plant_clustered(rng, word, count, &hubs, 0.35);
    }
    TenantData {
        texts: corpus.into_texts(),
        vocab,
        records,
    }
}

/// Assembles the corpus tree. Single tenancy: records are root
/// children. Multi tenancy: each tenant is a `tenant` subtree.
fn build_tree(spec: &ScenarioSpec, data: &[TenantData]) -> XmlTree {
    let mut b = TreeBuilder::new("corpus");
    for tenant in data {
        let wrap = matches!(spec.tenancy, Tenancy::Multi(_));
        if wrap {
            b.open("tenant");
        }
        let bpr = spec.shape.blocks_per_record();
        for r in 0..tenant.records {
            let blocks = &tenant.texts[r * bpr..(r + 1) * bpr];
            b.open("rec");
            b.leaf("title", &blocks[0]);
            match spec.shape {
                Shape::Flat => {
                    b.leaf("body", &blocks[1]);
                }
                Shape::Deep => {
                    // Depth cycles 3..=7 so sibling records disagree on
                    // nesting depth (anchors at varying levels).
                    let depth = 3 + r % 5;
                    for _ in 0..depth {
                        b.open("sec");
                    }
                    b.leaf("p", &blocks[1]);
                    for _ in 0..depth {
                        b.close();
                    }
                }
                Shape::Wide => {
                    for block in &blocks[1..] {
                        b.leaf("f", block);
                    }
                }
            }
            b.close();
        }
        if wrap {
            b.close();
        }
    }
    b.build()
}

/// `true` when `token` is one of this tenant's planted words
/// (`prefix` followed by only digits).
fn is_planted(token: &str, prefix: &str) -> bool {
    token
        .strip_prefix(prefix)
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

/// Blocks (by index) holding ≥ 2 distinct planted words, with those
/// words in block order.
fn cooccurrence_pool(tenant: &TenantData) -> Vec<(usize, Vec<String>)> {
    let prefix_len = tenant.vocab[0].len()
        - tenant.vocab[0]
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_digit())
            .count();
    let prefix = &tenant.vocab[0][..prefix_len];
    tenant
        .texts
        .iter()
        .enumerate()
        .filter_map(|(i, text)| {
            let mut words: Vec<String> = Vec::new();
            for tok in text.split(' ') {
                if is_planted(tok, prefix) && !words.iter().any(|w| w == tok) {
                    words.push(tok.to_owned());
                }
            }
            (words.len() >= 2).then_some((i, words))
        })
        .collect()
}

/// Planted words that landed in a *title* block, in corpus order.
fn title_pool(tenant: &TenantData, bpr: usize) -> Vec<String> {
    let prefix_len = tenant.vocab[0].len()
        - tenant.vocab[0]
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_digit())
            .count();
    let prefix = &tenant.vocab[0][..prefix_len];
    let mut out: Vec<String> = Vec::new();
    for (i, text) in tenant.texts.iter().enumerate() {
        if i % bpr != 0 {
            continue;
        }
        for tok in text.split(' ') {
            if is_planted(tok, prefix) && !out.iter().any(|w| w == tok) {
                out.push(tok.to_owned());
            }
        }
    }
    out
}

/// Emits the classed query set, drawing queries round-robin across
/// tenants so multi-tenant cells stay tenant-local per query.
fn build_queries(spec: &ScenarioSpec, data: &[TenantData]) -> Vec<ScenarioQuery> {
    let bpr = spec.shape.blocks_per_record();
    let pools: Vec<Vec<(usize, Vec<String>)>> = data.iter().map(cooccurrence_pool).collect();
    let titles: Vec<Vec<String>> = data.iter().map(|t| title_pool(t, bpr)).collect();

    let mut out = Vec::new();
    for class in QueryClass::ALL {
        for i in 0..class.target() {
            let t = i % data.len();
            let tenant = &data[t];
            let pool = &pools[t];
            let head = &tenant.vocab[0];
            let near_head = &tenant.vocab[1];
            let tail = &tenant.vocab[VOCAB_RANKS - 1 - i % 3];
            let text = match class {
                QueryClass::Plain => {
                    let Some((_, words)) = pick(pool, i) else {
                        continue;
                    };
                    // Alternate 2- and 3-keyword conjunctions.
                    words
                        .iter()
                        .take(2 + i % 2)
                        .cloned()
                        .collect::<Vec<_>>()
                        .join(" ")
                }
                QueryClass::Phrase => {
                    let Some((_, words)) = pick(pool, i + 1) else {
                        continue;
                    };
                    format!("\"{} {}\"", words[0], words[1])
                }
                QueryClass::Exclusion => {
                    let Some((_, words)) = pick(pool, i + 2) else {
                        continue;
                    };
                    let kept = words.iter().find(|w| *w != head).unwrap_or(&words[0]);
                    format!("{kept} -{head}")
                }
                QueryClass::Label => {
                    let Some(word) = titles[t].get(i * 3 % titles[t].len().max(1)) else {
                        continue;
                    };
                    if i % 2 == 0 {
                        format!("title:{word}")
                    } else {
                        format!("title:{word} {near_head}")
                    }
                }
                QueryClass::Adversarial => match i % 3 {
                    0 => format!("{head} {tail}"),
                    1 => head.clone(),
                    _ => format!("{head} {near_head} {tail}"),
                },
            };
            out.push(ScenarioQuery { class, text });
        }
    }
    out
}

/// Picks a pool entry, striding across the pool so successive picks
/// spread over the corpus rather than clustering at the front.
fn pick(pool: &[(usize, Vec<String>)], i: usize) -> Option<&(usize, Vec<String>)> {
    if pool.is_empty() {
        return None;
    }
    let stride = (pool.len() / 7).max(1);
    pool.get((i * stride + i) % pool.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for spec in ScenarioSpec::matrix() {
            let name = spec.name();
            assert_eq!(ScenarioSpec::parse(&name), Some(spec), "{name}");
        }
        assert!(ScenarioSpec::parse("s0-flat-zipf-single").is_none());
        assert!(ScenarioSpec::parse("s1-round-zipf-single").is_none());
        assert!(ScenarioSpec::parse("s1-flat-zipf-single-extra").is_none());
        assert!(ScenarioSpec::parse("flat-zipf-single").is_none());
    }

    #[test]
    fn matrix_has_twelve_distinct_cells() {
        let matrix = ScenarioSpec::matrix();
        assert_eq!(matrix.len(), 12);
        let names: Vec<String> = matrix.iter().map(ScenarioSpec::name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate cells: {names:?}");
    }

    #[test]
    fn smoke_covers_every_axis() {
        let smoke = ScenarioSpec::smoke();
        assert!(smoke.iter().all(|s| s.scale == 1));
        for shape in [Shape::Flat, Shape::Deep, Shape::Wide] {
            assert!(smoke.iter().any(|s| s.shape == shape), "{shape:?}");
        }
        assert!(smoke.iter().any(|s| s.skew == Skew::Uniform));
        assert!(smoke.iter().any(|s| s.skew == Skew::Zipf));
        assert!(smoke.iter().any(|s| s.tenancy == Tenancy::Single));
        assert!(smoke.iter().any(|s| matches!(s.tenancy, Tenancy::Multi(_))));
    }

    #[test]
    fn every_class_is_represented() {
        for spec in ScenarioSpec::smoke() {
            let scenario = spec.generate();
            for class in QueryClass::ALL {
                assert!(
                    !scenario.queries_of(class).is_empty(),
                    "{}: no {} queries",
                    spec.name(),
                    class.name()
                );
            }
        }
    }

    #[test]
    fn multi_tenant_queries_stay_tenant_local() {
        let spec = ScenarioSpec::new(1, Shape::Wide, Skew::Uniform, Tenancy::Multi(8));
        let scenario = spec.generate();
        for q in &scenario.queries {
            let tenants: Vec<&str> = q
                .text
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|w| w.starts_with('t') && w.contains('w'))
                .map(|w| &w[..w.find('w').unwrap()])
                .collect();
            let mut dedup = tenants.clone();
            dedup.dedup();
            assert!(
                dedup.len() <= 1,
                "query {:?} spans tenants {tenants:?}",
                q.text
            );
        }
    }

    #[test]
    fn deep_records_nest_and_wide_records_fan_out() {
        let deep = ScenarioSpec::new(1, Shape::Deep, Skew::Zipf, Tenancy::Single).generate();
        let max_depth = deep
            .tree
            .preorder()
            .map(|id| deep.tree.depth(id))
            .max()
            .unwrap();
        assert!(max_depth >= 8, "deep corpus max depth {max_depth}");

        let wide = ScenarioSpec::new(1, Shape::Wide, Skew::Zipf, Tenancy::Single).generate();
        let fs = wide
            .tree
            .preorder()
            .filter(|&id| wide.tree.label_name(id) == "f")
            .count();
        assert_eq!(fs, BASE_RECORDS * WIDE_FANOUT);
    }
}

//! Activation caches for mask-aware image editing.
//!
//! A [`TemplateCache`] holds, for one image template, the activations
//! captured during a *priming* inference: for every denoising step and
//! every transformer block, either the full-length block output `Y`
//! (Fig. 5) or, for the Fig. 7 variant, the attention keys/values `K`,
//! `V` kept in the attention kernel's panel layout — 2× the bytes of
//! `Y`, and no `Y` beside them. A subsequent edit request with any mask
//! can then replenish its unmasked rows from the cache.
//!
//! The numeric substrate keeps caches in memory; `fps-maskcache` layers
//! the hierarchical HBM/host/disk placement, sizing, and load-latency
//! modelling on top of the byte counts reported here.

use std::io::{self, Read, Write};

use fps_tensor::ops::AttnPanels;
use fps_tensor::Tensor;

use crate::error::DiffusionError;
use crate::Result;

/// Magic prefix of the serialized cache format.
const CACHE_MAGIC: &[u8; 4] = b"FPSC";
/// Serialization format version. Version 2 carried a per-step flag
/// byte (and optional UNet scaffold tensor) that version 3 dropped, so a
/// v2 blob parsed as v3 would read shifted. Version 3 stored K and V as
/// `[L, H]` tensors; version 4 streamed them as attention panels (`Kᵀ`
/// `[H, L]`, then `V` `[heads, L, dh]`) after `Y`; version 5 stores a
/// block's `Y` *or* its panels, behind a tag byte. Older blobs are
/// rejected by version.
const CACHE_VERSION: u8 = 5;
/// Block tag of a `Y` entry in format v5.
const TAG_Y: u8 = 0;
/// Block tag of a K/V entry in format v5.
const TAG_KV: u8 = 1;

/// Cached activations of one transformer block at one denoising step:
/// its output `Y`, or the keys and values its attention read — never
/// both. A K/V template needs no `Y`: where a block's input rows are
/// the previous block's cached output, the block's own panels are
/// those rows' `K` and `V` (`DiffusionModel::predict_planned`).
#[derive(Debug, Clone, PartialEq)]
pub enum BlockCache {
    /// Full-length block output `[L, H]` (the `Y` matrix of Fig. 5).
    Y(Tensor),
    /// Full-length attention keys and values of all `L` tokens, packed
    /// as the attention kernel reads them (Fig. 7).
    Kv(AttnPanels),
}

impl BlockCache {
    /// The cached block output, if this is a `Y` entry.
    pub fn y(&self) -> Option<&Tensor> {
        match self {
            Self::Y(y) => Some(y),
            Self::Kv(_) => None,
        }
    }

    /// The cached key/value panels, if this is a K/V entry.
    pub fn kv(&self) -> Option<&AttnPanels> {
        match self {
            Self::Y(_) => None,
            Self::Kv(kv) => Some(kv),
        }
    }

    /// Bytes of the `Y` payload, or 0 for a K/V entry.
    pub fn bytes_y(&self) -> u64 {
        self.y().map_or(0, |y| y.numel() as u64 * 4)
    }

    /// Bytes of the K and V payload (2× the `Y` bytes at the same
    /// shape), or 0 for a `Y` entry.
    pub fn bytes_kv(&self) -> u64 {
        self.kv()
            .map_or(0, |p| (p.keys().numel() + p.values().numel()) as u64 * 4)
    }

    /// Bytes held: [`BlockCache::bytes_y`] plus
    /// [`BlockCache::bytes_kv`].
    pub fn bytes(&self) -> u64 {
        self.bytes_y() + self.bytes_kv()
    }
}

/// Cached activations of every block at one denoising step.
#[derive(Debug, Clone, Default)]
pub struct StepCache {
    /// Per-block caches, indexed by block position in the model.
    pub blocks: Vec<BlockCache>,
}

/// All cached activations for one image template.
#[derive(Debug, Clone)]
pub struct TemplateCache {
    /// Identifier of the template this cache belongs to.
    pub template_id: u64,
    /// Token length the activations were captured at.
    pub tokens: usize,
    /// Hidden dimension the activations were captured at.
    pub hidden: usize,
    steps: Vec<StepCache>,
}

impl TemplateCache {
    /// Creates an empty cache shell for a template.
    pub fn new(template_id: u64, tokens: usize, hidden: usize) -> Self {
        Self {
            template_id,
            tokens,
            hidden,
            steps: Vec::new(),
        }
    }

    /// Appends the cache of the next denoising step.
    pub fn push_step(&mut self, step: StepCache) {
        self.steps.push(step);
    }

    /// Number of denoising steps captured.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Looks up the cache for `(step, block)`.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::CacheMiss`] when the entry is absent.
    pub fn get(&self, step: usize, block: usize) -> Result<&BlockCache> {
        self.steps
            .get(step)
            .and_then(|s| s.blocks.get(block))
            .ok_or(DiffusionError::CacheMiss { step, block })
    }

    /// Every block's entry, step by step.
    fn entries(&self) -> impl Iterator<Item = &BlockCache> {
        self.steps.iter().flat_map(|s| s.blocks.iter())
    }

    /// Total bytes of the `Y` entries across all steps and blocks.
    pub fn bytes_y(&self) -> u64 {
        self.entries().map(BlockCache::bytes_y).sum()
    }

    /// Total bytes of the K/V entries across all steps and blocks.
    pub fn bytes_kv(&self) -> u64 {
        self.entries().map(BlockCache::bytes_kv).sum()
    }

    /// Total bytes the cache holds: what a host-memory budget charges
    /// for it.
    pub fn bytes(&self) -> u64 {
        self.entries().map(BlockCache::bytes).sum()
    }

    /// Serializes the cache to a compact binary blob (magic, version,
    /// header, then little-endian `f32` tensor payloads) — the format
    /// spilled caches take on disk or in the hierarchical store's
    /// payload path. A buffered [`TemplateCache::write_to`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.bytes() as usize);
        self.write_to(&mut out)
            .expect("writing into a Vec<u8> cannot fail");
        out
    }

    /// Streams the [`TemplateCache::to_bytes`] format into `w`, a
    /// bounded chunk at a time, so spilling a cache to a file never
    /// holds a second copy of it in memory.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O errors.
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        w.write_all(CACHE_MAGIC)?;
        w.write_all(&[CACHE_VERSION])?;
        w.write_all(&self.template_id.to_le_bytes())?;
        w.write_all(&(self.tokens as u64).to_le_bytes())?;
        w.write_all(&(self.hidden as u64).to_le_bytes())?;
        w.write_all(&(self.steps.len() as u32).to_le_bytes())?;
        for step in &self.steps {
            w.write_all(&(step.blocks.len() as u32).to_le_bytes())?;
            for b in &step.blocks {
                match b {
                    BlockCache::Y(y) => {
                        w.write_all(&[TAG_Y])?;
                        write_tensor(&mut w, y)?;
                    }
                    BlockCache::Kv(kv) => {
                        w.write_all(&[TAG_KV])?;
                        write_tensor(&mut w, kv.keys())?;
                        write_tensor(&mut w, kv.values())?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Deserializes a cache previously produced by
    /// [`TemplateCache::to_bytes`]: [`TemplateCache::read_from`] over
    /// the slice.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidConfig`] for truncated,
    /// corrupt, or version-mismatched input.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        Self::read_from(data)
    }

    /// Reads one cache in the [`TemplateCache::to_bytes`] format from
    /// `r`, a bounded chunk at a time, and requires `r` to end there.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidConfig`] for truncated,
    /// corrupt, or version-mismatched input, an unknown block tag, a
    /// tensor whose shape disagrees with the header's token and hidden
    /// sizes, trailing bytes, and read failures.
    pub fn read_from(r: impl Read) -> Result<Self> {
        let mut r = Reader(r);
        if &r.array::<4>()? != CACHE_MAGIC {
            return Err(corrupt("bad magic"));
        }
        if r.array::<1>()?[0] != CACHE_VERSION {
            return Err(corrupt("unsupported version"));
        }
        let template_id = r.u64()?;
        let tokens = r.usize()?;
        let hidden = r.usize()?;
        let n_steps = r.u32()?;
        let mut cache = Self::new(template_id, tokens, hidden);
        for _ in 0..n_steps {
            let n_blocks = r.u32()?;
            let mut step = StepCache::default();
            for _ in 0..n_blocks {
                let block = match r.array::<1>()?[0] {
                    TAG_Y => BlockCache::Y(read_tensor(&mut r, "Y", |d| d == [tokens, hidden])?),
                    TAG_KV => {
                        let kt = read_tensor(&mut r, "K", |d| d == [hidden, tokens])?;
                        // `from_parts` checks V against `Kᵀ`.
                        let vp = read_tensor(&mut r, "V", |_| true)?;
                        BlockCache::Kv(
                            AttnPanels::from_parts(kt, vp)
                                .map_err(|_| corrupt("bad K/V panels"))?,
                        )
                    }
                    _ => return Err(corrupt("bad block tag")),
                };
                step.blocks.push(block);
            }
            cache.push_step(step);
        }
        if !r.at_end()? {
            return Err(corrupt("trailing bytes"));
        }
        Ok(cache)
    }

    /// Whether K/V activations were captured for every block.
    pub fn has_kv(&self) -> bool {
        !self.steps.is_empty() && self.entries().all(|b| b.kv().is_some())
    }
}

/// Bytes of tensor payload converted per `write_all` / `read_exact`.
const CHUNK: usize = 8192;

/// The decoding side of the format over any byte source; every read
/// is exact, and running out of input is a `truncated` error.
struct Reader<R>(R);

impl<R: Read> Reader<R> {
    fn fill(&mut self, buf: &mut [u8]) -> Result<()> {
        self.0.read_exact(buf).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => corrupt("truncated"),
            _ => corrupt(&format!("read failed: {e}")),
        })
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut buf = [0; N];
        self.fill(&mut buf)?;
        Ok(buf)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("implausible size"))
    }

    /// Whether the source is exhausted.
    fn at_end(&mut self) -> Result<bool> {
        let mut byte = [0; 1];
        loop {
            match self.0.read(&mut byte) {
                Ok(n) => return Ok(n == 0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(corrupt(&format!("read failed: {e}"))),
            }
        }
    }
}

fn corrupt(reason: &str) -> DiffusionError {
    DiffusionError::InvalidConfig {
        reason: format!("corrupt cache blob: {reason}"),
    }
}

fn write_tensor(w: &mut impl Write, t: &Tensor) -> io::Result<()> {
    w.write_all(&(t.dims().len() as u32).to_le_bytes())?;
    for &d in t.dims() {
        w.write_all(&(d as u64).to_le_bytes())?;
    }
    let mut buf = [0u8; CHUNK];
    for floats in t.data().chunks(CHUNK / 4) {
        for (dst, v) in buf.as_chunks_mut::<4>().0.iter_mut().zip(floats) {
            *dst = v.to_le_bytes();
        }
        w.write_all(&buf[..floats.len() * 4])?;
    }
    Ok(())
}

/// Reads one tensor whose dims must satisfy `expected`; `what` names
/// it in the error. The dims are checked before the payload is read.
fn read_tensor<R: Read>(
    r: &mut Reader<R>,
    what: &str,
    expected: impl Fn(&[usize]) -> bool,
) -> Result<Tensor> {
    let rank = r.u32()?;
    if rank > 8 {
        return Err(corrupt("implausible rank"));
    }
    let mut dims = Vec::with_capacity(rank as usize);
    for _ in 0..rank {
        dims.push(r.usize()?);
    }
    if !expected(&dims) {
        return Err(corrupt(&format!(
            "{what} shape {dims:?} disagrees with the header"
        )));
    }
    // The element count comes from the input: bound it before the
    // allocation it sizes, which is exact so a read cache carries no
    // spare capacity.
    let numel = dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .filter(|&n| n <= 1 << 30)
        .ok_or_else(|| corrupt("implausible tensor size"))?;
    let mut data = Vec::new();
    data.try_reserve_exact(numel)
        .map_err(|_| corrupt("implausible tensor size"))?;
    let mut buf = [0u8; CHUNK];
    let mut left = numel;
    while left > 0 {
        let raw = &mut buf[..left.min(CHUNK / 4) * 4];
        r.fill(raw)?;
        data.extend(
            raw.as_chunks::<4>()
                .0
                .iter()
                .map(|&c| f32::from_le_bytes(c)),
        );
        left -= raw.len() / 4;
    }
    Tensor::from_vec(data, dims).map_err(DiffusionError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panels(k: &Tensor, v: &Tensor, heads: usize) -> AttnPanels {
        AttnPanels::pack(k, v, heads).unwrap()
    }

    fn block(l: usize, h: usize, kv: bool) -> BlockCache {
        let zeros = Tensor::zeros([l, h]);
        if kv {
            BlockCache::Kv(panels(&zeros, &zeros, 1))
        } else {
            BlockCache::Y(zeros)
        }
    }

    /// A random `[l, h]` entry: K/V panels over `heads` heads when `kv`,
    /// else a `Y`.
    fn random_block(
        l: usize,
        h: usize,
        kv: bool,
        heads: usize,
        rng: &mut fps_tensor::rng::DetRng,
    ) -> BlockCache {
        let a = Tensor::randn([l, h], rng);
        if kv {
            BlockCache::Kv(panels(&a, &Tensor::randn([l, h], rng), heads))
        } else {
            BlockCache::Y(a)
        }
    }

    #[test]
    fn lookup_hits_and_misses() {
        let mut cache = TemplateCache::new(1, 4, 8);
        cache.push_step(StepCache {
            blocks: vec![block(4, 8, false); 2],
        });
        assert!(cache.get(0, 1).is_ok());
        assert_eq!(
            cache.get(0, 2).unwrap_err(),
            DiffusionError::CacheMiss { step: 0, block: 2 }
        );
        assert_eq!(
            cache.get(1, 0).unwrap_err(),
            DiffusionError::CacheMiss { step: 1, block: 0 }
        );
    }

    #[test]
    fn byte_accounting() {
        let cache_of = |kv: bool| {
            let mut cache = TemplateCache::new(1, 4, 8);
            for _ in 0..2 {
                cache.push_step(StepCache {
                    blocks: vec![block(4, 8, kv); 3],
                });
            }
            cache
        };
        let (y, kv) = (cache_of(false), cache_of(true));
        // Y: 2 steps × 3 blocks × 4×8 floats × 4 bytes, and nothing else.
        assert_eq!(y.bytes_y(), 2 * 3 * 4 * 8 * 4);
        assert_eq!((y.bytes_kv(), y.bytes()), (0, y.bytes_y()));
        assert!(!y.has_kv());
        // A K/V template holds K and V only: 2× the Y template's bytes.
        assert_eq!((kv.bytes_y(), kv.bytes_kv()), (0, 2 * y.bytes()));
        assert_eq!(kv.bytes(), 2 * y.bytes());
        assert!(kv.has_kv());
        let entry = kv.get(1, 2).unwrap();
        assert_eq!((entry.y(), entry.bytes()), (None, 2 * 4 * 8 * 4));
        assert!(y.get(1, 2).unwrap().kv().is_none());
    }

    /// Asserts `back` holds exactly `cache`'s header and entries.
    fn assert_same_cache(cache: &TemplateCache, back: &TemplateCache, blocks: usize) {
        assert_eq!(back.template_id, cache.template_id);
        assert_eq!(back.tokens, cache.tokens);
        assert_eq!(back.hidden, cache.hidden);
        assert_eq!(back.num_steps(), cache.num_steps());
        for s in 0..cache.num_steps() {
            for b in 0..blocks {
                assert_eq!(cache.get(s, b).unwrap(), back.get(s, b).unwrap());
            }
        }
    }

    /// A source that hands out at most 7 bytes per `read`, as a pipe or
    /// a socket may.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(7).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// `cache` through `write_to` into a writer that flushes every 7
    /// bytes.
    fn streamed(cache: &TemplateCache) -> Vec<u8> {
        let mut w = io::BufWriter::with_capacity(7, Vec::new());
        cache.write_to(&mut w).unwrap();
        w.into_inner().unwrap()
    }

    /// Decodes `blob` from the slice and through a trickling stream;
    /// the two readers must agree.
    fn decode(blob: &[u8]) -> Result<TemplateCache> {
        let sliced = TemplateCache::from_bytes(blob);
        let trickled = TemplateCache::read_from(Trickle(blob));
        assert_eq!(sliced.as_ref().err(), trickled.as_ref().err());
        if let (Ok(a), Ok(b)) = (&sliced, &trickled) {
            assert_eq!(a.to_bytes(), b.to_bytes());
        }
        trickled
    }

    /// The bytes of a blob's header for one step of `blocks` blocks:
    /// magic, `version`, id, tokens, hidden, step and block counts.
    fn header(version: u8, [id, tokens, hidden]: [u64; 3], blocks: u32) -> Vec<u8> {
        let mut blob = CACHE_MAGIC.to_vec();
        blob.push(version);
        for word in [id, tokens, hidden] {
            blob.extend(word.to_le_bytes());
        }
        blob.extend(1u32.to_le_bytes());
        blob.extend(blocks.to_le_bytes());
        blob
    }

    /// Format v5 round trips, both block kinds included, through a
    /// writer that flushes every 7 bytes and a reader that gets at most
    /// 7 bytes per `read`.
    #[test]
    fn serialization_round_trips() {
        let mut cache = TemplateCache::new(42, 4, 8);
        let mut rng = fps_tensor::rng::DetRng::new(1);
        for _ in 0..3 {
            let blocks = (0..2)
                .map(|i| random_block(4, 8, i == 0, 2, &mut rng))
                .collect();
            cache.push_step(StepCache { blocks });
        }
        assert_eq!(streamed(&cache), cache.to_bytes());
        let back = decode(&cache.to_bytes()).unwrap();
        assert_eq!((back.template_id, back.num_steps()), (42, 3));
        assert_same_cache(&cache, &back, 2);

        // A cache primed by a UNet preset — the case that carried a
        // scaffold tensor per step under format version 2.
        let cfg = crate::ModelConfig::sd21_like();
        let pipe = crate::EditPipeline::new(&cfg).unwrap();
        let template = crate::Image::template(cfg.pixel_h(), cfg.pixel_w(), 3);
        for kv in [false, true] {
            let primed = pipe.prime(&template, 7, kv).unwrap();
            assert_eq!(primed.has_kv(), kv);
            let bytes = primed.to_bytes();
            assert_eq!(streamed(&primed), bytes, "kv {kv}: write_to differs");
            let back = decode(&bytes).unwrap();
            assert_eq!(back.num_steps(), cfg.steps);
            assert_same_cache(&primed, &back, cfg.blocks);
            assert_eq!(back.to_bytes(), bytes, "kv {kv}: re-serialization differs");
        }
    }

    #[test]
    fn deserialization_rejects_corrupt_blobs() {
        let mut cache = TemplateCache::new(1, 2, 2);
        cache.push_step(StepCache {
            blocks: vec![block(2, 2, false)],
        });
        let good = cache.to_bytes();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(decode(&bad).is_err());
        // Bad version — 4, 3, 2 and 1 were once valid, and a v2 body
        // read as a later version would parse shifted, so the version
        // byte alone must reject.
        let with_version = |v: u8| {
            let mut blob = good.clone();
            blob[4] = v;
            blob
        };
        // A blob the v2 writer produced for this cache: v2 put a
        // scaffold flag byte after each step's block count (offset 37
        // for the first step; 0 = no scaffold tensor follows).
        let mut genuine_v2 = with_version(2);
        genuine_v2.insert(37, 0);
        for bad in [
            with_version(99),
            with_version(4),
            with_version(3),
            with_version(2),
            with_version(1),
            genuine_v2,
        ] {
            assert_eq!(
                decode(&bad).unwrap_err(),
                corrupt("unsupported version"),
                "version byte {}",
                bad[4]
            );
        }
        // Truncation at every prefix length must error, never panic.
        for cut in [0, 3, 5, 12, good.len() / 2, good.len() - 1] {
            assert!(decode(&good[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert_eq!(decode(&bad).unwrap_err(), corrupt("trailing bytes"));
    }

    /// A block tag other than `Y` or K/V, a `Y` or `Kᵀ` whose shape
    /// disagrees with the header's token and hidden sizes (caught before
    /// its payload is read), and value panels that disagree with `Kᵀ`
    /// are errors: a damaged spill file fails to parse rather than
    /// serving rows of the wrong shape.
    #[test]
    fn bad_tags_and_shapes_are_rejected() {
        let mut cache = TemplateCache::new(1, 4, 8);
        cache.push_step(StepCache {
            blocks: vec![block(4, 8, true)],
        });
        let good = cache.to_bytes();
        assert_same_cache(&cache, &decode(&good).unwrap(), 1);
        // The first block's tag follows the 37-byte header.
        assert_eq!(good[37], TAG_KV);
        for tag in [2, 7, 255] {
            let mut bad = good.clone();
            bad[37] = tag;
            assert_eq!(
                decode(&bad).unwrap_err(),
                corrupt("bad block tag"),
                "tag {tag}"
            );
        }
        let shape_error = |what: &str, dims: &[usize]| {
            corrupt(&format!("{what} shape {dims:?} disagrees with the header"))
        };
        // A K/V entry read as `Y`: its `Kᵀ` is `[H, L]`, not `[L, H]`.
        let mut as_y = good.clone();
        as_y[37] = TAG_Y;
        assert_eq!(decode(&as_y).unwrap_err(), shape_error("Y", &[8, 4]));
        // Entries of another template size than the header's.
        let mut y_cache = TemplateCache::new(1, 4, 8);
        y_cache.push_step(StepCache {
            blocks: vec![block(4, 6, false)],
        });
        assert_eq!(
            decode(&y_cache.to_bytes()).unwrap_err(),
            shape_error("Y", &[4, 6])
        );
        let mut kv_cache = TemplateCache::new(1, 5, 8);
        kv_cache.push_step(StepCache {
            blocks: vec![block(4, 8, true)],
        });
        assert_eq!(
            decode(&kv_cache.to_bytes()).unwrap_err(),
            shape_error("K", &[8, 4])
        );
        // Value panels that do not tile `[heads, L, H / heads]`.
        for dims in [[2, 4, 3], [2, 5, 4], [0, 4, 2]] {
            let mut blob = header(CACHE_VERSION, [1, 4, 8], 1);
            blob.push(TAG_KV);
            write_tensor(&mut blob, &Tensor::zeros([8, 4])).unwrap();
            write_tensor(&mut blob, &Tensor::zeros(dims)).unwrap();
            assert_eq!(decode(&blob).unwrap_err(), corrupt("bad K/V panels"));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        // Caches of any mix of `Y` and K/V entries round trip.
        #[test]
        fn prop_serialization_round_trips(
            steps in 0usize..4,
            kinds in proptest::collection::vec(proptest::bool::ANY, 1..4),
            l in 1usize..6,
            h in 1usize..6,
            multi_head in proptest::bool::ANY,
            seed in 0u64..1000,
        ) {
            let mut rng = fps_tensor::rng::DetRng::new(seed);
            let heads = if multi_head { h } else { 1 };
            let mut cache = TemplateCache::new(seed, l, h);
            for _ in 0..steps {
                let bs = kinds
                    .iter()
                    .map(|&kv| random_block(l, h, kv, heads, &mut rng))
                    .collect();
                cache.push_step(StepCache { blocks: bs });
            }
            let back = TemplateCache::from_bytes(&cache.to_bytes()).expect("round trip");
            proptest::prop_assert_eq!(back.num_steps(), steps);
            proptest::prop_assert_eq!(back.bytes_y(), cache.bytes_y());
            proptest::prop_assert_eq!(back.bytes_kv(), cache.bytes_kv());
            proptest::prop_assert_eq!(back.has_kv(), cache.has_kv());
            for s in 0..steps {
                for b in 0..kinds.len() {
                    proptest::prop_assert_eq!(
                        cache.get(s, b).expect("entry"),
                        back.get(s, b).expect("entry")
                    );
                }
            }
        }
    }

    /// A blob the v3 writer produced for a K/V cache (`Y`, then K and V
    /// as `[L, H]` tensors) is rejected by its version byte; read as v5
    /// its body would not even parse.
    #[test]
    fn v3_blobs_are_rejected() {
        let mut rng = fps_tensor::rng::DetRng::new(3);
        let (y, k, v) = (
            Tensor::randn([3, 4], &mut rng),
            Tensor::randn([3, 4], &mut rng),
            Tensor::randn([3, 4], &mut rng),
        );
        let v3_body = |version: u8| {
            let mut blob = header(version, [9, 3, 4], 1);
            blob.push(1);
            for t in [&y, &k, &v] {
                write_tensor(&mut blob, t).unwrap();
            }
            blob
        };
        assert_eq!(
            decode(&v3_body(3)).unwrap_err(),
            corrupt("unsupported version")
        );
        assert_eq!(
            decode(&v3_body(CACHE_VERSION)).unwrap_err(),
            corrupt("K shape [3, 4] disagrees with the header")
        );
        // The same cache's K and V in v5 read back.
        let mut cache = TemplateCache::new(9, 3, 4);
        cache.push_step(StepCache {
            blocks: vec![BlockCache::Kv(panels(&k, &v, 2))],
        });
        assert_same_cache(&cache, &decode(&cache.to_bytes()).unwrap(), 1);
    }

    /// A blob the v4 writer produced for a K/V cache (a flag byte, `Y`,
    /// then the panels) is rejected by its version byte; read as v5 its
    /// `Y` would stand where `Kᵀ` belongs, which the shape check
    /// catches. Its Y-only blobs differ from v5's in the version byte
    /// alone, which still rejects them.
    #[test]
    fn v4_blobs_are_rejected() {
        let mut rng = fps_tensor::rng::DetRng::new(4);
        let (y, k, v) = (
            Tensor::randn([3, 4], &mut rng),
            Tensor::randn([3, 4], &mut rng),
            Tensor::randn([3, 4], &mut rng),
        );
        let kv = panels(&k, &v, 2);
        let v4_body = |version: u8, with_kv: bool| {
            let mut blob = header(version, [9, 3, 4], 1);
            blob.push(u8::from(with_kv));
            write_tensor(&mut blob, &y).unwrap();
            if with_kv {
                write_tensor(&mut blob, kv.keys()).unwrap();
                write_tensor(&mut blob, kv.values()).unwrap();
            }
            blob
        };
        for with_kv in [false, true] {
            assert_eq!(
                decode(&v4_body(4, with_kv)).unwrap_err(),
                corrupt("unsupported version"),
                "kv {with_kv}"
            );
        }
        assert_eq!(
            decode(&v4_body(CACHE_VERSION, true)).unwrap_err(),
            corrupt("K shape [3, 4] disagrees with the header")
        );
        let mut y_cache = TemplateCache::new(9, 3, 4);
        y_cache.push_step(StepCache {
            blocks: vec![BlockCache::Y(y.clone())],
        });
        assert_eq!(v4_body(CACHE_VERSION, false), y_cache.to_bytes());
    }

    #[test]
    fn has_kv_requires_every_block() {
        let mut cache = TemplateCache::new(1, 4, 8);
        cache.push_step(StepCache {
            blocks: vec![block(4, 8, true), block(4, 8, false)],
        });
        assert!(!cache.has_kv());
        assert_eq!(cache.num_steps(), 1);
        let empty = TemplateCache::new(2, 4, 8);
        assert!(!empty.has_kv());
    }
}

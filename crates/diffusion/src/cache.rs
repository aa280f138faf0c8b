//! Activation caches for mask-aware image editing.
//!
//! A [`TemplateCache`] holds, for one image template, the activations
//! captured during a *priming* inference: for every denoising step and
//! every transformer block, the full-length block output `Y` (and
//! optionally the attention keys/values `K`, `V` for the Fig. 7
//! alternative, kept in the attention kernel's panel layout). A
//! subsequent edit request with any mask can then replenish its unmasked
//! rows from the cache.
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
/// `[L, H]` tensors; version 4 streams them as attention panels (`Kᵀ`
/// `[H, L]`, then `V` `[heads, L, dh]`). Older blobs are rejected by
/// version.
const CACHE_VERSION: u8 = 4;

/// Cached activations of one transformer block at one denoising step.
#[derive(Debug, Clone)]
pub struct BlockCache {
    /// Full-length block output `[L, H]` (the `Y` matrix of Fig. 5).
    pub y: Tensor,
    /// Full-length attention keys and values of all `L` tokens, packed
    /// as the attention kernel reads them; present only when the cache
    /// was primed for the K/V variant.
    pub kv: Option<AttnPanels>,
}

impl BlockCache {
    /// Bytes of the Y-variant payload.
    pub fn bytes_y(&self) -> u64 {
        self.y.numel() as u64 * 4
    }

    /// Bytes of the K and V payload (2× the Y payload, so a K/V
    /// template holds 3× the bytes of a Y-only one), or 0 when K/V were
    /// not captured.
    pub fn bytes_kv(&self) -> u64 {
        self.kv
            .as_ref()
            .map_or(0, |p| (p.keys().numel() + p.values().numel()) as u64 * 4)
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

    /// Total bytes of the Y-variant cache across all steps and blocks.
    pub fn bytes_y(&self) -> u64 {
        self.steps
            .iter()
            .flat_map(|s| s.blocks.iter())
            .map(BlockCache::bytes_y)
            .sum()
    }

    /// Total bytes of the K/V-variant cache across all steps and blocks.
    pub fn bytes_kv(&self) -> u64 {
        self.steps
            .iter()
            .flat_map(|s| s.blocks.iter())
            .map(BlockCache::bytes_kv)
            .sum()
    }

    /// Serializes the cache to a compact binary blob (magic, version,
    /// header, then little-endian `f32` tensor payloads) — the format
    /// spilled caches take on disk or in the hierarchical store's
    /// payload path. A buffered [`TemplateCache::write_to`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.bytes_y() as usize + self.bytes_kv() as usize);
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
                w.write_all(&[u8::from(b.kv.is_some())])?;
                write_tensor(&mut w, &b.y)?;
                if let Some(kv) = &b.kv {
                    write_tensor(&mut w, kv.keys())?;
                    write_tensor(&mut w, kv.values())?;
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
    /// corrupt, or version-mismatched input, trailing bytes, and read
    /// failures.
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
                let has_kv = r.array::<1>()?[0] != 0;
                let y = read_tensor(&mut r)?;
                let kv = if has_kv {
                    let kt = read_tensor(&mut r)?;
                    let vp = read_tensor(&mut r)?;
                    Some(AttnPanels::from_parts(kt, vp).map_err(|_| corrupt("bad K/V panels"))?)
                } else {
                    None
                };
                step.blocks.push(BlockCache { y, kv });
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
        !self.steps.is_empty()
            && self
                .steps
                .iter()
                .flat_map(|s| s.blocks.iter())
                .all(|b| b.kv.is_some())
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

fn read_tensor<R: Read>(r: &mut Reader<R>) -> Result<Tensor> {
    let rank = r.u32()?;
    if rank > 8 {
        return Err(corrupt("implausible rank"));
    }
    let mut dims = Vec::with_capacity(rank as usize);
    for _ in 0..rank {
        dims.push(r.usize()?);
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
        BlockCache {
            y: zeros.clone(),
            kv: kv.then(|| panels(&zeros, &zeros, 1)),
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
        let mut cache = TemplateCache::new(1, 4, 8);
        cache.push_step(StepCache {
            blocks: vec![block(4, 8, true); 3],
        });
        cache.push_step(StepCache {
            blocks: vec![block(4, 8, true); 3],
        });
        // Y: 2 steps × 3 blocks × 4×8 floats × 4 bytes.
        assert_eq!(cache.bytes_y(), 2 * 3 * 4 * 8 * 4);
        // K and V are 2× the Y bytes, so a K/V template holds 3× a Y one.
        assert_eq!(cache.bytes_kv(), 2 * cache.bytes_y());
        assert!(cache.has_kv());
    }

    /// Asserts `back` holds exactly `cache`'s header and tensors.
    fn assert_same_cache(cache: &TemplateCache, back: &TemplateCache, blocks: usize) {
        assert_eq!(back.template_id, cache.template_id);
        assert_eq!(back.tokens, cache.tokens);
        assert_eq!(back.hidden, cache.hidden);
        assert_eq!(back.num_steps(), cache.num_steps());
        for s in 0..cache.num_steps() {
            for b in 0..blocks {
                let a = cache.get(s, b).unwrap();
                let z = back.get(s, b).unwrap();
                assert_eq!(a.y, z.y);
                assert_eq!(a.kv, z.kv);
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

    /// Format v4 round trips, K/V panels included, through a writer
    /// that flushes every 7 bytes and a reader that gets at most 7 bytes
    /// per `read`.
    #[test]
    fn serialization_round_trips() {
        let mut cache = TemplateCache::new(42, 4, 8);
        let mut rng = fps_tensor::rng::DetRng::new(1);
        for _ in 0..3 {
            let blocks = (0..2)
                .map(|i| BlockCache {
                    y: Tensor::randn([4, 8], &mut rng),
                    kv: (i == 0).then(|| {
                        let k = Tensor::randn([4, 8], &mut rng);
                        panels(&k, &Tensor::randn([4, 8], &mut rng), 2)
                    }),
                })
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
        // Bad version — 3, 2 and 1 were once valid, and a v2 body read
        // as a later version would parse shifted, so the version byte
        // alone must reject.
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn prop_serialization_round_trips(
            steps in 0usize..4,
            blocks in 1usize..4,
            l in 1usize..6,
            h in 1usize..6,
            kv in proptest::bool::ANY,
            seed in 0u64..1000,
        ) {
            let mut rng = fps_tensor::rng::DetRng::new(seed);
            let mut cache = TemplateCache::new(seed, l, h);
            for _ in 0..steps {
                let bs = (0..blocks)
                    .map(|_| BlockCache {
                        y: Tensor::randn([l, h], &mut rng),
                        kv: kv.then(|| {
                            let k = Tensor::randn([l, h], &mut rng);
                            panels(&k, &Tensor::randn([l, h], &mut rng), 1)
                        }),
                    })
                    .collect();
                cache.push_step(StepCache { blocks: bs });
            }
            let back = TemplateCache::from_bytes(&cache.to_bytes()).expect("round trip");
            proptest::prop_assert_eq!(back.num_steps(), steps);
            proptest::prop_assert_eq!(back.bytes_y(), cache.bytes_y());
            proptest::prop_assert_eq!(back.bytes_kv(), cache.bytes_kv());
            for s in 0..steps {
                for b in 0..blocks {
                    proptest::prop_assert_eq!(
                        &cache.get(s, b).expect("entry").y,
                        &back.get(s, b).expect("entry").y
                    );
                }
            }
        }
    }

    /// A blob the v3 writer produced for a K/V cache (K and V as
    /// `[L, H]` tensors) is rejected by its version byte; read as v4 its
    /// body would not even parse.
    #[test]
    fn v3_blobs_are_rejected() {
        let mut rng = fps_tensor::rng::DetRng::new(3);
        let (y, k, v) = (
            Tensor::randn([3, 4], &mut rng),
            Tensor::randn([3, 4], &mut rng),
            Tensor::randn([3, 4], &mut rng),
        );
        let v3_body = |version: u8| {
            let mut blob = CACHE_MAGIC.to_vec();
            blob.push(version);
            for word in [9u64, 3, 4] {
                blob.extend(word.to_le_bytes());
            }
            blob.extend(1u32.to_le_bytes());
            blob.extend(1u32.to_le_bytes());
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
            corrupt("bad K/V panels")
        );
        // The same cache in v4 reads back.
        let mut cache = TemplateCache::new(9, 3, 4);
        cache.push_step(StepCache {
            blocks: vec![BlockCache {
                y,
                kv: Some(panels(&k, &v, 2)),
            }],
        });
        assert_same_cache(&cache, &decode(&cache.to_bytes()).unwrap(), 1);
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

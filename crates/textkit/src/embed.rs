//! Hashed bag-of-features sentence embeddings.
//!
//! The paper selects few-shot examples by embedding questions with a
//! pretrained sentence encoder and ranking by distance. Offline we use the
//! classic hashing trick: word unigrams, word bigrams and character trigrams
//! hashed into a fixed-dimension TF vector, L2-normalized. Cosine similarity
//! over these vectors behaves like a (weaker) sentence encoder: higher for
//! paraphrases and domain-similar questions, lower for unrelated ones — the
//! property the selection experiments rely on.
//!
//! The hasher is *streaming*: every feature is folded into an FNV-1a state
//! byte by byte straight from slices of one reusable lowercase buffer — no
//! per-feature `format!`, no intermediate `Vec<String>`/`Vec<char>`. Since
//! FNV-1a is a byte-serial hash, `fnv1a(b"u:cats")` and seeding with
//! `b"u:"` then folding in `b"cats"` are the same computation, so the
//! streaming path produces bit-identical embeddings to the original
//! allocating implementation (asserted against the retained specification
//! copy in this module's tests). [`embed_into`] is the zero-alloc entry
//! point used by the selection index; [`embed`] wraps it for callers that
//! want an owned [`Embedding`].

use std::cell::RefCell;

/// Embedding dimension (power of two for cheap modulo).
pub const DIM: usize = 512;

/// A dense, L2-normalized embedding vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(pub Vec<f32>);

impl Embedding {
    /// Cosine similarity (vectors are already normalized, so this is a dot
    /// product). Returns 0 for a zero vector.
    ///
    /// This is the *reference* similarity: it accumulates in `f64`. The
    /// selection fast path (`retrievekit`'s matrix kernel) accumulates in
    /// `f32`; the `f32_kernel_divergence_is_bounded` test in `promptkit`
    /// pins their divergence below `1e-5`, far under any score gap that
    /// could reorder a selection.
    pub fn cosine(&self, other: &Embedding) -> f64 {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum()
    }
}

/// Incremental FNV-1a state, so multi-part feature keys (`"b:" + w1 +
/// " " + w2`) hash without materializing the concatenation.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    #[inline]
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    #[inline]
    fn update(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        self
    }

    #[inline]
    fn finish(self) -> u64 {
        self.0
    }
}

/// Fold one hashed feature into the TF vector. Signed hashing (top bit
/// picks the sign) reduces collision bias.
#[inline]
fn bump(v: &mut [f32], h: u64, weight: f32) {
    let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
    v[(h as usize) % DIM] += weight * sign;
}

thread_local! {
    /// Reusable lowercase buffer: after warm-up, embedding performs no
    /// heap allocation for ASCII text (the non-ASCII path falls back to
    /// `str::to_lowercase` to keep Unicode case folding — including its
    /// multi-char and final-sigma rules — identical to the original).
    static LOWER_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Is `c` part of a word (the split predicate, shared by all passes)?
#[inline]
fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Embed a text into `out` (length [`DIM`]), overwriting it. Zero-alloc in
/// the steady state for ASCII input.
pub fn embed_into(text: &str, out: &mut [f32]) {
    assert_eq!(out.len(), DIM, "embed_into needs a DIM-length buffer");
    if obskit::enabled() {
        obskit::current().add_counter("textkit.embeds", 1);
    }
    out.fill(0.0);
    LOWER_BUF.with(|buf| {
        let mut lower = buf.borrow_mut();
        lower.clear();
        if text.is_ascii() {
            for b in text.bytes() {
                lower.push(b.to_ascii_lowercase() as char);
            }
        } else {
            // Cold path; `str::to_lowercase` semantics must be preserved
            // exactly (char-wise folding differs on e.g. final sigma).
            lower.push_str(&text.to_lowercase());
        }
        hash_features(&lower, out);
    });

    // L2 normalize.
    let norm: f32 = out.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in out.iter_mut() {
            *x /= norm;
        }
    }
}

/// Three feature passes over the lowercased text, in the fixed order
/// (unigrams, bigrams, trigrams) that pins down `f32` summation order.
fn hash_features(lower: &str, out: &mut [f32]) {
    let words = lower
        .split(|c: char| !is_word_char(c))
        .filter(|w| !w.is_empty());

    // Word unigrams (weight 1).
    let u_seed = Fnv::new().update(b"u:");
    for w in words.clone() {
        bump(out, u_seed.update(w.as_bytes()).finish(), 1.0);
    }

    // Word bigrams (weight 0.7) capture phrasing.
    let b_seed = Fnv::new().update(b"b:");
    let mut prev: Option<&str> = None;
    for w in words.clone() {
        if let Some(p) = prev {
            let h = b_seed
                .update(p.as_bytes())
                .update(b" ")
                .update(w.as_bytes())
                .finish();
            bump(out, h, 0.7);
        }
        prev = Some(w);
    }

    // Character trigrams (weight 0.3) give robustness to morphology.
    // Slide a window of char boundaries so each trigram is a byte slice
    // of the word — no `Vec<char>`, no per-trigram `String`.
    let t_seed = Fnv::new().update(b"t:");
    for w in words {
        let mut starts = [0usize; 4];
        let mut seen = 0usize;
        for (pos, _) in w.char_indices() {
            if seen >= 3 {
                let tri = &w[starts[(seen - 3) % 4]..pos];
                bump(out, t_seed.update(tri.as_bytes()).finish(), 0.3);
            }
            starts[seen % 4] = pos;
            seen += 1;
        }
        if seen >= 3 {
            let tri = &w[starts[(seen - 3) % 4]..];
            bump(out, t_seed.update(tri.as_bytes()).finish(), 0.3);
        }
    }
}

/// Embed a text.
pub fn embed(text: &str) -> Embedding {
    let mut v = vec![0f32; DIM];
    embed_into(text, &mut v);
    Embedding(v)
}

/// Convenience: cosine similarity of two texts.
pub fn text_cosine(a: &str, b: &str) -> f64 {
    embed(a).cosine(&embed(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot FNV-1a 64-bit, as the original implementation called it.
    fn fnv1a(bytes: &[u8]) -> u64 {
        Fnv::new().update(bytes).finish()
    }

    /// The original allocating implementation, kept verbatim as the
    /// specification the streaming hasher must reproduce bit for bit.
    fn embed_spec(text: &str) -> Embedding {
        let mut v = vec![0f32; DIM];
        let lower = text.to_lowercase();
        let words: Vec<&str> = lower
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .filter(|w| !w.is_empty())
            .collect();

        let mut bump = |key: &str, weight: f32| {
            let h = fnv1a(key.as_bytes()) as usize;
            let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
            v[h % DIM] += weight * sign;
        };

        for w in &words {
            bump(&format!("u:{w}"), 1.0);
        }
        for pair in words.windows(2) {
            bump(&format!("b:{} {}", pair[0], pair[1]), 0.7);
        }
        for w in &words {
            let chars: Vec<char> = w.chars().collect();
            if chars.len() >= 3 {
                for tri in chars.windows(3) {
                    let s: String = tri.iter().collect();
                    bump(&format!("t:{s}"), 0.3);
                }
            }
        }

        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        Embedding(v)
    }

    #[test]
    fn streaming_hasher_is_bit_identical_to_spec() {
        for text in [
            "",
            "x",
            "ab",
            "how many singers are there",
            "List the Name_of every   stadium!",
            "word-with-punct 42 'quoted' repeat repeat repeat",
            "unicode café naïve ÉCOLE über straße",
            "a_b_c d1e2f3 _lead trail_",
            "ss SS ß", // sharp s uppercases/lowercases asymmetrically
        ] {
            assert_eq!(embed(text), embed_spec(text), "text {text:?}");
        }
    }

    #[test]
    fn embed_into_agrees_with_embed() {
        let mut buf = vec![7.0f32; DIM]; // stale contents must be overwritten
        embed_into("how many cats", &mut buf);
        assert_eq!(buf, embed("how many cats").0);
    }

    #[test]
    fn identical_texts_have_similarity_one() {
        let s = text_cosine("how many singers are there", "how many singers are there");
        assert!((s - 1.0).abs() < 1e-5, "{s}");
    }

    #[test]
    fn paraphrase_beats_unrelated() {
        let a = "how many singers do we have";
        let b = "what is the number of singers";
        let c = "list the maximum capacity of every stadium";
        let sim_ab = text_cosine(a, b);
        let sim_ac = text_cosine(a, c);
        assert!(sim_ab > sim_ac, "{sim_ab} vs {sim_ac}");
    }

    #[test]
    fn embedding_is_deterministic() {
        assert_eq!(embed("some question text"), embed("some question text"));
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = embed("");
        assert!(e.0.iter().all(|x| *x == 0.0));
        assert_eq!(e.cosine(&embed("anything")), 0.0);
    }

    #[test]
    fn similarity_bounded() {
        let s = text_cosine("find all dogs", "find all cats and dogs in the shelter");
        assert!((-1.0..=1.0).contains(&s));
        assert!(s > 0.0);
    }

    #[test]
    fn case_insensitive() {
        let s = text_cosine("How MANY Singers", "how many singers");
        assert!((s - 1.0).abs() < 1e-5);
    }
}

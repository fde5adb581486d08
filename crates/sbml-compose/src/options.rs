//! Composition options: semantics level, index structure, synonym table,
//! pattern caching and initial-value collection.
//!
//! Every field either changes the composed output or reproduces one of the
//! paper's experiments (the semantics ladder, index and pattern-cache
//! ablations). How a session computes that output — copy-on-write base
//! adoption, the incremental initial-value store, the content-key cache,
//! incremental key renaming — is not an option: each stage has one
//! production path, and the slower reference paths live on as test and
//! bench oracles ([`crate::initial_values::collect`],
//! [`crate::CompositionSession::with_prepared_base`], the raw push).

use bio_synonyms::SynonymTable;

use crate::index::IndexKind;

/// How much meaning the matcher may use (the paper's §5 heavy/light/none
/// semantics spectrum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SemanticsLevel {
    /// Full SBMLCompose behaviour: synonym tables, commutative math
    /// patterns, unit conversion, initial-value evaluation.
    #[default]
    Heavy,
    /// Name normalisation + synonym tables only; math is compared
    /// structurally without commutativity, units are compared by id, and
    /// initial assignments are compared without evaluation.
    Light,
    /// Exact-id matching only (the generic method "without semantics").
    None,
}

/// Options controlling one composition run.
#[derive(Debug, Clone)]
pub struct ComposeOptions {
    /// Semantics level (default: heavy — the full published algorithm).
    pub semantics: SemanticsLevel,
    /// Index structure used for component lookup (default: hash map).
    pub index: IndexKind,
    /// Synonym table consulted for name equality (default: builtins).
    pub synonyms: SynonymTable,
    /// Cache canonical math patterns per component instead of recomputing
    /// on every candidate comparison (default: true; the paper's "mappings
    /// are stored to reduce comparison time"). The `ablation_cache` bench
    /// switches this off.
    pub cache_patterns: bool,
    /// Evaluate initial assignments before merging and use the values in
    /// conflict checks (default: true).
    pub collect_initial_values: bool,
}

impl Default for ComposeOptions {
    fn default() -> Self {
        ComposeOptions {
            semantics: SemanticsLevel::Heavy,
            index: IndexKind::HashMap,
            synonyms: SynonymTable::with_builtins(),
            cache_patterns: true,
            collect_initial_values: true,
        }
    }
}

impl ComposeOptions {
    /// Full heavy-semantics defaults.
    pub fn heavy() -> ComposeOptions {
        ComposeOptions::default()
    }

    /// Light-semantics variant.
    pub fn light() -> ComposeOptions {
        ComposeOptions { semantics: SemanticsLevel::Light, ..ComposeOptions::default() }
    }

    /// No-semantics variant (exact ids, empty synonym table).
    pub fn none() -> ComposeOptions {
        ComposeOptions {
            semantics: SemanticsLevel::None,
            synonyms: SynonymTable::new(),
            ..ComposeOptions::default()
        }
    }

    /// Builder: set the semantics level. Unlike [`ComposeOptions::none`],
    /// this leaves the synonym table untouched — combine with
    /// [`ComposeOptions::with_synonyms`] to drop it as well.
    #[must_use]
    pub fn with_semantics(mut self, semantics: SemanticsLevel) -> ComposeOptions {
        self.semantics = semantics;
        self
    }

    /// Builder: set the index kind.
    #[must_use]
    pub fn with_index(mut self, index: IndexKind) -> ComposeOptions {
        self.index = index;
        self
    }

    /// Builder: set the synonym table.
    #[must_use]
    pub fn with_synonyms(mut self, synonyms: SynonymTable) -> ComposeOptions {
        self.synonyms = synonyms;
        self
    }

    /// Builder: toggle pattern caching.
    #[must_use]
    pub fn with_pattern_cache(mut self, on: bool) -> ComposeOptions {
        self.cache_patterns = on;
        self
    }

    /// Builder: toggle initial-value collection and evaluation.
    #[must_use]
    pub fn with_initial_values(mut self, on: bool) -> ComposeOptions {
        self.collect_initial_values = on;
        self
    }

    /// Fingerprint of every option that influences canonical content keys
    /// and merge decisions. A [`crate::PreparedModel`] records the
    /// fingerprint it was prepared under; composing it under options with a
    /// different fingerprint is rejected, since the cached analysis would
    /// silently diverge from what the raw path computes.
    pub fn fingerprint(&self) -> OptionsFingerprint {
        OptionsFingerprint {
            semantics: self.semantics,
            index: self.index,
            cache_patterns: self.cache_patterns,
            collect_initial_values: self.collect_initial_values,
            synonym_hash: self.synonyms.content_hash(),
        }
    }
}

/// Identity of a [`ComposeOptions`] value as far as cached per-model
/// analysis is concerned; see [`ComposeOptions::fingerprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptionsFingerprint {
    semantics: SemanticsLevel,
    index: IndexKind,
    cache_patterns: bool,
    collect_initial_values: bool,
    /// [`bio_synonyms::SynonymTable::content_hash`] of the synonym table
    /// — two tables with the same group count but different contents must
    /// not fingerprint equal.
    synonym_hash: u64,
}

impl OptionsFingerprint {
    /// A stable 64-bit digest of the fingerprint, suitable for embedding
    /// in on-disk formats (the `sbml-serve` snapshot header records it so
    /// a snapshot is rejected when loaded under options whose cached
    /// analysis would diverge). Equal fingerprints always digest equal;
    /// the digest is a pure function of the fingerprint's fields, not of
    /// process layout, so it is comparable across runs and builds.
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over an explicit field encoding: no derived Hash (whose
        // output is allowed to vary across compiler versions), no
        // pointers.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        };
        eat(match self.semantics {
            SemanticsLevel::Heavy => 0,
            SemanticsLevel::Light => 1,
            SemanticsLevel::None => 2,
        });
        eat(match self.index {
            IndexKind::HashMap => 0,
            IndexKind::BTree => 1,
            IndexKind::LinearScan => 2,
        });
        eat(u8::from(self.cache_patterns));
        eat(u8::from(self.collect_initial_values));
        for byte in self.synonym_hash.to_le_bytes() {
            eat(byte);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(ComposeOptions::heavy().semantics, SemanticsLevel::Heavy);
        assert_eq!(ComposeOptions::light().semantics, SemanticsLevel::Light);
        let none = ComposeOptions::none();
        assert_eq!(none.semantics, SemanticsLevel::None);
        assert_eq!(none.synonyms.group_count(), 0);
    }

    #[test]
    fn builders() {
        let o = ComposeOptions::default()
            .with_index(IndexKind::LinearScan)
            .with_pattern_cache(false)
            .with_semantics(SemanticsLevel::Light)
            .with_initial_values(false);
        assert_eq!(o.index, IndexKind::LinearScan);
        assert!(!o.cache_patterns);
        assert_eq!(o.semantics, SemanticsLevel::Light);
        assert!(!o.collect_initial_values);
        // with_semantics keeps the synonym table, unlike the none() preset.
        assert!(o.synonyms.group_count() > 0);
    }

    #[test]
    fn fingerprints_track_key_affecting_options() {
        let base = ComposeOptions::default();
        assert_eq!(base.fingerprint(), ComposeOptions::default().fingerprint());
        assert_ne!(base.fingerprint(), ComposeOptions::light().fingerprint());
        assert_ne!(base.fingerprint(), ComposeOptions::none().fingerprint());
        assert_ne!(
            base.fingerprint(),
            ComposeOptions::default().with_index(IndexKind::BTree).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ComposeOptions::default().with_initial_values(false).fingerprint()
        );
    }

    #[test]
    fn stable_hash_tracks_fingerprint_equality() {
        let heavy = ComposeOptions::heavy().fingerprint();
        assert_eq!(heavy.stable_hash(), ComposeOptions::heavy().fingerprint().stable_hash());
        for other in [ComposeOptions::light(), ComposeOptions::none()] {
            assert_ne!(heavy.stable_hash(), other.fingerprint().stable_hash());
        }
        assert_ne!(
            heavy.stable_hash(),
            ComposeOptions::default().with_pattern_cache(false).fingerprint().stable_hash()
        );
    }
}

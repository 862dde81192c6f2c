//! Seeded inputs: per-session and per-trace seeds derived from the
//! workload seed, and a digest of everything generated from it.
//!
//! The program under test only ever sees the generated inputs (trace
//! frames, admission requests); the seed itself stays here.

use rts_stream::gen::{MpegConfig, MpegSource};
use rts_stream::rng::SplitMix64;
use rts_stream::slicing::FrameSizeTrace;

/// The canonical Section 5 seed: at this workload seed the sweep's
/// losses must equal the committed Figure 2 and 3 results.
pub const CANONICAL_SEED: u64 = 20_000_716;

/// Frames in a Section 5 trace (the canonical length).
pub const TRACE_FRAMES: usize = 1800;

/// An independent seed for input stream `stream` of workload seed
/// `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// A Section 5 MPEG-like trace of `frames` frames from `seed`.
pub fn mpeg_trace(seed: u64, frames: usize) -> FrameSizeTrace {
    MpegSource::new(MpegConfig::cnn_like(), seed).frames(frames)
}

/// Frames per group of pictures in the Section 5 MPEG model.
const GOP: usize = 13;

/// Section 5 trace `stream` of workload seed `seed`: the canonical trace
/// rotated by a seeded whole number of GOPs. Every seed gets the same
/// frames in a different order, so every seed does the same work (fresh
/// traces of one length differ by a third in size); at
/// [`CANONICAL_SEED`] trace 0 is the canonical trace itself.
pub fn section5_trace(seed: u64, stream: u64) -> FrameSizeTrace {
    let canonical = mpeg_trace(CANONICAL_SEED, TRACE_FRAMES);
    if seed == CANONICAL_SEED && stream == 0 {
        return canonical;
    }
    let shift = (derive(seed, stream) % (TRACE_FRAMES / GOP) as u64) as usize * GOP;
    let mut frames = canonical.frames().to_vec();
    frames.rotate_left(shift);
    FrameSizeTrace::new(frames)
}

/// FNV-1a digest of generated inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn add(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a whole frame-size trace in.
    pub fn add_trace(&mut self, trace: &FrameSizeTrace) {
        self.add(trace.len() as u64);
        for &(kind, size) in trace.frames() {
            self.add(u64::from(kind.letter()));
            self.add(size);
        }
    }

    /// Printable form.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_seed_gives_the_canonical_trace() {
        // The golden values the figure workload pins for its trace.
        let t = mpeg_trace(CANONICAL_SEED, TRACE_FRAMES);
        assert_eq!(t.total_bytes(), 66_602);
        assert_eq!(t.max_frame_bytes(), 120);
    }

    #[test]
    fn every_seed_rotates_the_same_frames() {
        let canonical = mpeg_trace(CANONICAL_SEED, TRACE_FRAMES);
        assert_eq!(section5_trace(CANONICAL_SEED, 0), canonical);
        let mut want: Vec<u64> = canonical.frames().iter().map(|f| f.1).collect();
        want.sort_unstable();
        for seed in 1..6 {
            let t = section5_trace(seed, 0);
            assert_eq!(t.total_bytes(), canonical.total_bytes());
            let mut got: Vec<u64> = t.frames().iter().map(|f| f.1).collect();
            got.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let sweep = |seed| crate::sweep::Inputs::generate(seed).digest;
        assert_eq!(sweep(7), sweep(7));
        assert_ne!(sweep(7), sweep(8));
        let ingest = |seed| crate::ingest::Inputs::generate(seed).digest;
        assert_eq!(ingest(7), ingest(7));
        assert_ne!(ingest(7), ingest(8));
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
        assert_eq!(derive(5, 9), derive(5, 9));
    }
}

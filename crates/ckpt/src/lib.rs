//! Durable checkpoint store for bounded-time recovery.
//!
//! The streamer's retained change log makes recovery *possible*; this
//! crate makes it *bounded*. At a quiesced batch boundary every agent
//! serializes its shard state into one checkpoint file, and the driver
//! commits the set as a **generation**. Recovery then loads the latest
//! valid generation and replays the change log since the oldest
//! retained one, instead of replaying history from genesis (the model
//! BLADYG uses for its failure-recovery protocol).
//!
//! The store is payload-agnostic: `elga-core` decides what bytes
//! describe an agent (it reuses the migration-bundle vocabulary); this
//! crate owns durability. Three disciplines make a checkpoint safe to
//! trust:
//!
//! * **Atomic writes.** Every file is written to a `.tmp` sibling,
//!   fsynced, then renamed into place (and the directory fsynced), so a
//!   crash never leaves a half-written file under a final name.
//! * **Self-validation.** Every shard file carries a magic/version tag,
//!   its generation, epoch, agent, and watermark, the payload length,
//!   and a CRC-64 of the payload. A generation also carries a
//!   `MANIFEST` naming the agents that must be present; the manifest is
//!   written **last**, after every shard has been read back and
//!   verified (the commit *scrub*), so an unreadable generation is
//!   never visible as committed.
//! * **The fallback ladder.** [`CheckpointStore::latest_valid`] walks
//!   generations newest-first and re-validates every shard; a torn,
//!   truncated, or bit-flipped file disqualifies its generation and
//!   recovery falls back one more generation — never restoring from a
//!   corrupt file, never producing a wrong answer.
//!
//! Faults are injected with [`DiskFault`] below the write path, in the
//! same seeded style as `elga-net`'s `FaultyTransport`: the writer is
//! *not told* its bytes were torn or flipped — damage is only
//! discoverable by reading back, which is exactly what scrub and
//! restore do.

#![warn(missing_docs)]

use elga_net::SplitMix64;
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Storage-fault parameters for checkpoint writes — the disk analog of
/// `elga_net::FaultPlan`. Probabilities are rolled once per file write
/// from a seeded [`SplitMix64`], so a fixed seed makes the fault
/// sequence on a given writer deterministic.
///
/// Faults model a *lying* disk: the writer is not told its file is
/// damaged, exactly as a powered-off drive cache or a crash between
/// `write` and `fsync` behaves. The damage is only discoverable by
/// reading the file back and checking its length and checksum, which is
/// precisely what the checkpoint commit scrub and the restore-time
/// validation do.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiskFault {
    /// Probability in `[0, 1]` that a write is torn: only a prefix of
    /// the bytes reaches the file (a crash mid-write).
    pub torn_write: f64,
    /// Probability in `[0, 1]` that one byte of the written file is
    /// flipped (silent media corruption).
    pub corrupt: f64,
}

impl DiskFault {
    /// A plan that tears and corrupts with the given probabilities.
    pub fn new(torn_write: f64, corrupt: f64) -> Self {
        Self {
            torn_write,
            corrupt,
        }
    }

    /// True when no fault can ever fire.
    pub fn is_benign(&self) -> bool {
        self.torn_write <= 0.0 && self.corrupt <= 0.0
    }
}

/// Magic + version tag opening every shard file. Version 3's payload
/// is MIG_VERTEX frames, as a view change sends them; an older shard
/// fails validation instead of misparsing, so the fallback ladder skips
/// its generation.
const SHARD_MAGIC: &[u8; 8] = b"ELGACKP4";
/// Magic + version tag opening every manifest file. Version 3 dropped
/// version 2's dangling-mass book; an older manifest fails validation,
/// so the fallback ladder skips its generation.
const MANIFEST_MAGIC: &[u8; 8] = b"ELGAMAN3";
/// Fixed shard header: magic, gen, epoch, agent, watermark, payload
/// length, payload CRC-64.
const SHARD_HEADER: usize = 8 + 6 * 8;

/// Errors surfaced by the checkpoint store.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure (create, read, rename, fsync).
    Io(io::Error),
    /// A file failed validation: bad magic, short read, wrong
    /// generation/agent, or checksum mismatch. The string names the
    /// check that failed.
    Corrupt(&'static str),
    /// The requested generation or shard file does not exist.
    Missing,
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CkptError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
            CkptError::Missing => write!(f, "checkpoint missing"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::NotFound {
            CkptError::Missing
        } else {
            CkptError::Io(e)
        }
    }
}

/// CRC-64/ECMA-182 table, built at compile time.
const fn crc64_table() -> [u64; 256] {
    const POLY: u64 = 0x42F0_E1EB_A9EA_3693;
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u64) << 56;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & (1 << 63) != 0 {
                (crc << 1) ^ POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64: [u64; 256] = crc64_table();

/// CRC-64/ECMA-182 of `bytes`. Public so tests can forge and break
/// checksums deliberately.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = 0u64;
    for &b in bytes {
        crc = (crc << 8) ^ CRC64[(((crc >> 56) as u8) ^ b) as usize];
    }
    crc
}

/// Parsed header of one shard file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// Checkpoint generation this shard belongs to.
    pub generation: u64,
    /// View epoch at the moment of the checkpoint.
    pub epoch: u64,
    /// Agent id that wrote the shard.
    pub agent: u64,
    /// Change-log watermark: number of records already reflected in
    /// the payload. Replay resumes from this global record index.
    pub watermark: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
}

/// A committed generation as recorded by its manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The generation number (monotonically increasing).
    pub generation: u64,
    /// View epoch at the checkpoint cut.
    pub epoch: u64,
    /// Change-log watermark shared by every shard of the generation.
    pub watermark: u64,
    /// Agents whose shard files make the generation complete.
    pub agents: Vec<u64>,
}

/// Outcome of [`CheckpointStore::latest_valid`]: the manifest chosen
/// plus how many newer committed generations had to be skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidGeneration {
    /// The newest generation whose every shard validated.
    pub manifest: Manifest,
    /// Committed generations newer than the chosen one that failed
    /// validation (the length of the fallback ladder walked).
    pub fallbacks: u64,
}

/// A directory of checkpoint generations.
///
/// Several instances may point at the same directory: each agent holds
/// one to write its own shard, the driver holds one (fault-free) to
/// scrub, commit, prune, and restore.
pub struct CheckpointStore {
    dir: PathBuf,
    faults: DiskFault,
    rng: SplitMix64,
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("faults", &self.faults)
            .finish()
    }
}

fn shard_name(generation: u64, agent: u64) -> String {
    format!("g{generation:08}-a{agent}.shard")
}

fn manifest_name(generation: u64) -> String {
    format!("g{generation:08}.manifest")
}

/// Generation number parsed from a store filename, if it is one.
fn parse_generation(name: &str) -> Option<u64> {
    let rest = name.strip_prefix('g')?;
    let digits = &rest.get(..8)?;
    digits.parse().ok()
}

impl CheckpointStore {
    /// Open (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(CkptError::Io)?;
        Ok(Self {
            dir,
            faults: DiskFault::default(),
            rng: SplitMix64::new(0),
        })
    }

    /// Inject storage faults into every subsequent write, rolled from a
    /// [`SplitMix64`] seeded with `seed`. Writers are not told when a
    /// fault fires — validation catches the damage later.
    pub fn with_faults(mut self, faults: DiskFault, seed: u64) -> Self {
        self.faults = faults;
        self.rng = SplitMix64::new(seed);
        self
    }

    /// The directory backing the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Write `bytes` to `name` atomically: tmp file, fsync, rename,
    /// directory fsync. Disk faults, if configured, silently damage the
    /// bytes that reach the disk.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        let mut damaged;
        let mut out: &[u8] = bytes;
        if !self.faults.is_benign() && !bytes.is_empty() {
            damaged = bytes.to_vec();
            if self.faults.torn_write > 0.0 && self.rng.next_f64() < self.faults.torn_write {
                let keep = self.rng.below(bytes.len() as u64) as usize;
                damaged.truncate(keep);
            }
            if !damaged.is_empty()
                && self.faults.corrupt > 0.0
                && self.rng.next_f64() < self.faults.corrupt
            {
                let at = self.rng.below(damaged.len() as u64) as usize;
                damaged[at] ^= 0x40;
            }
            out = &damaged;
        }
        let tmp = self.dir.join(format!("{name}.tmp"));
        let fin = self.dir.join(name);
        {
            let mut f = fs::File::create(&tmp).map_err(CkptError::Io)?;
            f.write_all(out).map_err(CkptError::Io)?;
            f.sync_all().map_err(CkptError::Io)?;
        }
        fs::rename(&tmp, &fin).map_err(CkptError::Io)?;
        // Durability of the rename itself; best effort on platforms
        // where directories cannot be opened for sync.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Write one agent's shard for `generation`. Returns the on-disk
    /// size in bytes (header + payload, before any injected damage).
    pub fn write_shard(
        &mut self,
        generation: u64,
        epoch: u64,
        agent: u64,
        watermark: u64,
        payload: &[u8],
    ) -> Result<u64, CkptError> {
        let mut bytes = Vec::with_capacity(SHARD_HEADER + payload.len());
        bytes.extend_from_slice(SHARD_MAGIC);
        for v in [
            generation,
            epoch,
            agent,
            watermark,
            payload.len() as u64,
            crc64(payload),
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(payload);
        self.write_atomic(&shard_name(generation, agent), &bytes)?;
        Ok(bytes.len() as u64)
    }

    fn parse_shard(
        bytes: &[u8],
        generation: u64,
        agent: u64,
    ) -> Result<(ShardHeader, usize), CkptError> {
        if bytes.len() < SHARD_HEADER {
            return Err(CkptError::Corrupt("shard shorter than header"));
        }
        if &bytes[..8] != SHARD_MAGIC {
            return Err(CkptError::Corrupt("bad shard magic"));
        }
        let mut fields = [0u64; 6];
        for (i, field) in fields.iter_mut().enumerate() {
            let at = 8 + i * 8;
            *field = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        }
        let header = ShardHeader {
            generation: fields[0],
            epoch: fields[1],
            agent: fields[2],
            watermark: fields[3],
            payload_len: fields[4],
        };
        if header.generation != generation || header.agent != agent {
            return Err(CkptError::Corrupt("shard header names wrong gen/agent"));
        }
        if bytes.len() != SHARD_HEADER + header.payload_len as usize {
            return Err(CkptError::Corrupt("shard length mismatch (torn write)"));
        }
        if crc64(&bytes[SHARD_HEADER..]) != fields[5] {
            return Err(CkptError::Corrupt("shard checksum mismatch"));
        }
        Ok((header, SHARD_HEADER))
    }

    /// Read and fully validate one shard, returning header + payload.
    pub fn read_shard(
        &self,
        generation: u64,
        agent: u64,
    ) -> Result<(ShardHeader, Vec<u8>), CkptError> {
        let mut bytes = Vec::new();
        fs::File::open(self.dir.join(shard_name(generation, agent)))?
            .read_to_end(&mut bytes)
            .map_err(CkptError::Io)?;
        let (header, off) = Self::parse_shard(&bytes, generation, agent)?;
        bytes.drain(..off);
        Ok((header, bytes))
    }

    /// Validate one shard without keeping its payload.
    pub fn validate_shard(&self, generation: u64, agent: u64) -> Result<ShardHeader, CkptError> {
        self.read_shard(generation, agent).map(|(h, _)| h)
    }

    /// Scrub every named shard (read back + verify) and, only if all
    /// pass, write the generation's manifest. This is the *commit
    /// point*: a generation without a manifest is invisible, so a torn
    /// or corrupted shard write can never be mistaken for durable
    /// state — the caller keeps its change log and tries again later.
    pub fn commit(
        &mut self,
        generation: u64,
        epoch: u64,
        watermark: u64,
        agents: &[u64],
    ) -> Result<(), CkptError> {
        for &a in agents {
            let h = self.validate_shard(generation, a)?;
            if h.epoch != epoch || h.watermark != watermark {
                return Err(CkptError::Corrupt("shard cut disagrees with commit"));
            }
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MANIFEST_MAGIC);
        for v in [generation, epoch, watermark, agents.len() as u64] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for &a in agents {
            bytes.extend_from_slice(&a.to_le_bytes());
        }
        let crc = crc64(&bytes[8..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        self.write_atomic(&manifest_name(generation), &bytes)
    }

    /// Read and validate the manifest of `generation`.
    pub fn manifest(&self, generation: u64) -> Result<Manifest, CkptError> {
        let mut bytes = Vec::new();
        fs::File::open(self.dir.join(manifest_name(generation)))?
            .read_to_end(&mut bytes)
            .map_err(CkptError::Io)?;
        if bytes.len() < 8 + 4 * 8 + 8 {
            return Err(CkptError::Corrupt("manifest shorter than header"));
        }
        if &bytes[..8] != MANIFEST_MAGIC {
            return Err(CkptError::Corrupt("bad manifest magic"));
        }
        let body = &bytes[8..bytes.len() - 8];
        let crc = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        if crc64(body) != crc {
            return Err(CkptError::Corrupt("manifest checksum mismatch"));
        }
        let word = |i: usize| u64::from_le_bytes(body[i * 8..i * 8 + 8].try_into().expect("8"));
        let n = word(3) as usize;
        if body.len() != (4 + n) * 8 {
            return Err(CkptError::Corrupt("manifest length mismatch"));
        }
        let manifest = Manifest {
            generation: word(0),
            epoch: word(1),
            watermark: word(2),
            agents: (0..n).map(|i| word(4 + i)).collect(),
        };
        if manifest.generation != generation {
            return Err(CkptError::Corrupt("manifest names wrong generation"));
        }
        Ok(manifest)
    }

    /// Committed generation numbers present on disk (manifest files
    /// exist — not necessarily valid), ascending.
    pub fn generations(&self) -> Vec<u64> {
        let mut gens = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy();
                if name.ends_with(".manifest") {
                    if let Some(g) = parse_generation(&name) {
                        gens.push(g);
                    }
                }
            }
        }
        gens.sort_unstable();
        gens.dedup();
        gens
    }

    /// Walk the fallback ladder: newest committed generation first,
    /// re-validating the manifest and every shard it names. The first
    /// fully-valid generation whose watermark is `>= min_watermark`
    /// (changes older than `min_watermark` are no longer in the change
    /// log, so an older cut could not be completed by a replay)
    /// wins. `None` means no usable generation exists.
    pub fn latest_valid(&self, min_watermark: u64) -> Option<ValidGeneration> {
        let mut fallbacks = 0;
        for &generation in self.generations().iter().rev() {
            let usable = self.manifest(generation).ok().filter(|m| {
                m.watermark >= min_watermark
                    && m.agents
                        .iter()
                        .all(|&a| match self.validate_shard(generation, a) {
                            Ok(h) => h.epoch == m.epoch && h.watermark == m.watermark,
                            Err(_) => false,
                        })
            });
            match usable {
                Some(manifest) => {
                    return Some(ValidGeneration {
                        manifest,
                        fallbacks,
                    })
                }
                None => fallbacks += 1,
            }
        }
        None
    }

    /// Delete every generation older than the newest `keep` committed
    /// ones, plus any orphan shard/tmp files from generations without a
    /// manifest that are older than the survivors. Manifests are
    /// removed first so a crash mid-prune leaves orphans (harmless,
    /// collected next time), never a manifest naming deleted shards.
    pub fn prune(&mut self, keep: usize) -> Result<(), CkptError> {
        let gens = self.generations();
        if gens.len() <= keep {
            return Ok(());
        }
        let cutoff = gens[gens.len() - keep];
        for &g in gens.iter().filter(|&&g| g < cutoff) {
            let _ = fs::remove_file(self.dir.join(manifest_name(g)));
        }
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy().into_owned();
                let doomed =
                    parse_generation(&name).is_some_and(|g| g < cutoff) || name.ends_with(".tmp");
                if doomed && !name.ends_with(".manifest") {
                    let _ = fs::remove_file(e.path());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("elga-ckpt-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).expect("open store")
    }

    fn teardown(store: CheckpointStore) {
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn shard_roundtrip_preserves_header_and_payload() {
        let mut s = tmp_store("roundtrip");
        let payload = b"vertex bytes".to_vec();
        let bytes = s.write_shard(3, 7, 42, 1000, &payload).unwrap();
        assert_eq!(bytes as usize, SHARD_HEADER + payload.len());
        let (h, got) = s.read_shard(3, 42).unwrap();
        assert_eq!(
            h,
            ShardHeader {
                generation: 3,
                epoch: 7,
                agent: 42,
                watermark: 1000,
                payload_len: payload.len() as u64,
            }
        );
        assert_eq!(got, payload);
        teardown(s);
    }

    #[test]
    fn checksum_rejects_a_flipped_byte() {
        let mut s = tmp_store("flip");
        s.write_shard(1, 1, 0, 10, b"payload-to-damage").unwrap();
        let path = s.dir().join(shard_name(1, 0));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        assert!(matches!(
            s.read_shard(1, 0),
            Err(CkptError::Corrupt("shard checksum mismatch"))
        ));
        teardown(s);
    }

    #[test]
    fn truncation_is_detected_as_torn() {
        let mut s = tmp_store("trunc");
        s.write_shard(1, 1, 0, 10, &vec![9u8; 256]).unwrap();
        let path = s.dir().join(shard_name(1, 0));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            s.read_shard(1, 0),
            Err(CkptError::Corrupt("shard length mismatch (torn write)"))
        ));
        // Truncated inside the header is caught too.
        fs::write(&path, &bytes[..SHARD_HEADER / 2]).unwrap();
        assert!(matches!(s.read_shard(1, 0), Err(CkptError::Corrupt(_))));
        teardown(s);
    }

    #[test]
    fn injected_torn_writes_never_validate() {
        let mut s = tmp_store("faulty").with_faults(DiskFault::new(1.0, 0.0), 0xD15C);
        s.write_shard(1, 1, 0, 10, &vec![7u8; 512]).unwrap();
        assert!(s.validate_shard(1, 0).is_err());
        // Commit scrubs the shard back and must refuse the generation.
        assert!(s.commit(1, 1, 10, &[0]).is_err());
        assert!(s.generations().is_empty(), "no manifest committed");
        teardown(s);
    }

    #[test]
    fn injected_corruption_is_deterministic_per_seed() {
        let verdicts: Vec<Vec<bool>> = (0..2)
            .map(|run| {
                let mut s =
                    tmp_store(&format!("det{run}")).with_faults(DiskFault::new(0.4, 0.3), 0x5EED);
                let ok = (0..8)
                    .map(|g| {
                        s.write_shard(g, 1, 0, g * 10, &[3u8; 128]).unwrap();
                        s.validate_shard(g, 0).is_ok()
                    })
                    .collect();
                teardown(s);
                ok
            })
            .collect();
        assert_eq!(verdicts[0], verdicts[1]);
        assert!(verdicts[0].iter().any(|&v| v), "some writes survive");
        assert!(verdicts[0].iter().any(|&v| !v), "some writes damaged");
    }

    #[test]
    fn commit_then_manifest_roundtrip() {
        let mut s = tmp_store("commit");
        for a in [0u64, 1, 5] {
            s.write_shard(2, 9, a, 77, &[a as u8; 16]).unwrap();
        }
        s.commit(2, 9, 77, &[0, 1, 5]).unwrap();
        let m = s.manifest(2).unwrap();
        assert_eq!(
            m,
            Manifest {
                generation: 2,
                epoch: 9,
                watermark: 77,
                agents: vec![0, 1, 5],
            }
        );
        assert_eq!(s.generations(), vec![2]);
        teardown(s);
    }

    #[test]
    fn commit_refuses_mismatched_cut() {
        let mut s = tmp_store("cutcheck");
        s.write_shard(1, 1, 0, 50, b"x").unwrap();
        // Shard says watermark 50; committing watermark 60 must fail.
        assert!(matches!(
            s.commit(1, 1, 60, &[0]),
            Err(CkptError::Corrupt("shard cut disagrees with commit"))
        ));
        teardown(s);
    }

    #[test]
    fn fallback_ladder_skips_damaged_generations() {
        let mut s = tmp_store("ladder");
        for g in 1..=3u64 {
            s.write_shard(g, g, 0, g * 100, &[g as u8; 64]).unwrap();
            s.commit(g, g, g * 100, &[0]).unwrap();
        }
        // Undamaged: newest generation wins with no fallbacks.
        let v = s.latest_valid(0).unwrap();
        assert_eq!((v.manifest.generation, v.fallbacks), (3, 0));

        // Tear generation 3's shard after commit (bit rot / crash
        // during a later overwrite): ladder falls back to 2.
        let p3 = s.dir().join(shard_name(3, 0));
        let bytes = fs::read(&p3).unwrap();
        fs::write(&p3, &bytes[..bytes.len() - 5]).unwrap();
        let v = s.latest_valid(0).unwrap();
        assert_eq!((v.manifest.generation, v.fallbacks), (2, 1));

        // Corrupt generation 2 as well: down to 1, two fallbacks.
        let p2 = s.dir().join(shard_name(2, 0));
        let mut bytes = fs::read(&p2).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&p2, bytes).unwrap();
        let v = s.latest_valid(0).unwrap();
        assert_eq!((v.manifest.generation, v.fallbacks), (1, 2));

        // A generation whose records have already been compacted away
        // cannot be completed by a replay: min_watermark filters
        // it out and nothing is left.
        assert!(s.latest_valid(150).is_none());
        teardown(s);
    }

    #[test]
    fn an_older_format_fails_validation_and_the_ladder_skips_it() {
        let mut s = tmp_store("oldmagic");
        for g in 1..=4u64 {
            s.write_shard(g, 1, 0, g, &[g as u8; 8]).unwrap();
            s.commit(g, 1, g, &[0]).unwrap();
        }
        let retag = |name: String, magic: &[u8; 8]| {
            let path = s.dir().join(name);
            let mut bytes = fs::read(&path).unwrap();
            bytes[..8].copy_from_slice(magic);
            fs::write(&path, bytes).unwrap();
        };
        retag(manifest_name(4), b"ELGAMAN2");
        retag(shard_name(3, 0), b"ELGACKP2");
        retag(shard_name(2, 0), b"ELGACKP1");
        assert!(matches!(
            s.manifest(4),
            Err(CkptError::Corrupt("bad manifest magic"))
        ));
        assert!(matches!(s.validate_shard(3, 0), Err(CkptError::Corrupt(_))));
        assert!(matches!(s.validate_shard(2, 0), Err(CkptError::Corrupt(_))));
        let v = s.latest_valid(0).unwrap();
        assert_eq!((v.manifest.generation, v.fallbacks), (1, 3));
        teardown(s);
    }

    #[test]
    fn prune_keeps_newest_and_collects_orphans() {
        let mut s = tmp_store("prune");
        for g in 1..=4u64 {
            s.write_shard(g, 1, 0, g, &[1]).unwrap();
            s.commit(g, 1, g, &[0]).unwrap();
        }
        // Orphan shard from an uncommitted generation 0.
        s.write_shard(0, 1, 0, 0, &[9]).unwrap();
        s.prune(2).unwrap();
        assert_eq!(s.generations(), vec![3, 4]);
        assert!(s.validate_shard(3, 0).is_ok());
        assert!(s.validate_shard(4, 0).is_ok());
        assert!(matches!(s.read_shard(1, 0), Err(CkptError::Missing)));
        assert!(matches!(s.read_shard(0, 0), Err(CkptError::Missing)));
        teardown(s);
    }
}

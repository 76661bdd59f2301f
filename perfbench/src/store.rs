//! The persistent store miss-writes recovers at start-up and compacts
//! inside its window, prepared before the server is spawned.

use crate::gen::{Class, Job, Plan};
use caz_idb::fnv1a_128;
use caz_service::proto::{decode_frame, WireFrame, WireReply};
use caz_service::{Request, Session};
use caz_store::format::encode_record;
use caz_store::{Entry, FsyncPolicy, Store};
use std::io;
use std::path::Path;

/// Entries in the prepared snapshot. The WAL is then filled so that the
/// compaction trigger (WAL body > 4 × snapshot body) is crossed a third
/// of the way into the window: recovery reads several times this many
/// entries, and exactly one compaction falls inside the window.
pub const SNAPSHOT_ENTRIES: usize = 12_000;

/// The store's compaction ratio (`caz-store`'s default).
const COMPACT_RATIO: u64 = 4;

/// The value the server caches for a job: the reply payload, or for a
/// `series` the rows joined as its aggregate.
pub fn cached_value(job: &Job, frames: &[String]) -> Option<String> {
    let decoded: Vec<WireFrame> = frames.iter().filter_map(|f| decode_frame(f)).collect();
    if job.class == Class::Series {
        let mut out = String::new();
        for f in decoded.iter().rev().skip(1).rev() {
            match f {
                WireFrame::Chunk { payload, .. } => {
                    out.push_str(payload);
                    out.push('\n');
                }
                _ => out.clear(),
            }
        }
        return Some(out);
    }
    match decoded.last()? {
        WireFrame::Final(WireReply::Ok(text)) => Some(text.clone()),
        _ => None,
    }
}

/// The cache entry a job's evaluation inserts, if it is cacheable.
pub fn entry_for(plan: &Plan, job: &Job, frames: &[String]) -> Option<Entry> {
    if !job.class.cacheable() {
        return None;
    }
    let mut session = Session::new();
    for line in plan.session.iter().chain(&job.lines[..job.lines.len() - 1]) {
        session.execute(line).ok()?;
    }
    let Ok(Some(Request::Eval(ev))) = Request::parse(job.eval_line()) else {
        return None;
    };
    let key = session.cache_key(&ev)?;
    Some(Entry {
        key: key.text,
        shard_hash: key.shard_hash,
        value: cached_value(job, frames)?,
    })
}

fn record_len(e: &Entry) -> u64 {
    let mut buf = Vec::new();
    encode_record(e, &mut buf);
    buf.len() as u64
}

/// Clones of `template` that differ only in the job id inside its
/// constants (every generated constant embeds its job's id).
fn clones(template: &Entry, id: usize, n: usize, first: usize) -> Vec<Entry> {
    let needle = format!("{id:07}r");
    let canon_at = template.key.rfind('\u{1}').map_or(0, |i| i + 1);
    (first..first + n)
        .map(|i| {
            let key = template
                .key
                .replace(&needle, &format!("{:07}r", 3_000_000 + i));
            let shard_hash = fnv1a_128(&key.as_bytes()[canon_at..]);
            Entry {
                key,
                shard_hash,
                value: template.value.clone(),
            }
        })
        .collect()
}

/// Write the miss-writes store into `dir`: a snapshot of
/// [`SNAPSHOT_ENTRIES`] entries and a WAL that reaches the compaction
/// trigger after the warm-up's appends plus the first third of the
/// window's. `template` is a real entry shape; `warmup` and `window`
/// are the entries the run will append.
pub fn prepare(
    dir: &Path,
    template: &Entry,
    template_id: usize,
    warmup: &[Entry],
    window: &[Entry],
) -> io::Result<()> {
    let (mut store, _, _) = Store::open(dir, FsyncPolicy::Never)?;
    let snapshot = clones(template, template_id, SNAPSHOT_ENTRIES, 0);
    let snapshot_bytes: u64 = snapshot.iter().map(record_len).sum();
    store.append_batch(&snapshot)?;
    store.compact()?;
    let appended: u64 = warmup
        .iter()
        .chain(&window[..window.len() / 3])
        .map(record_len)
        .sum();
    let wal_target = (COMPACT_RATIO * snapshot_bytes).saturating_sub(appended);
    let per = record_len(template);
    let wal = clones(
        template,
        template_id,
        (wal_target / per) as usize,
        SNAPSHOT_ENTRIES,
    );
    for batch in wal.chunks(256) {
        store.append_batch(batch)?;
    }
    store.sync()
}

/// Copy the store files of `from` into a new directory `to`, synced to
/// disk so their write-back cannot compete with the measured window.
pub fn copy(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for name in [caz_store::SNAPSHOT_FILE, caz_store::WAL_FILE] {
        std::fs::copy(from.join(name), to.join(name))?;
        std::fs::File::open(to.join(name))?.sync_all()?;
    }
    Ok(())
}

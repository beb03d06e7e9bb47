//! The one read path (DESIGN.md "Query serving"): a point read is a
//! QUERY_BATCH to each vertex's primary under a view the reader keeps.
//! [`crate::cluster::Cluster::query_u64`] is a batch of one, and
//! `elga_query::QueryClient::query_batch` a batch of many.

use crate::config::SystemConfig;
use crate::directory::fetch_view;
use crate::msg::{self, DirectoryView};
use elga_graph::types::VertexId;
use elga_hash::EdgeLocator;
use elga_net::{Addr, Frame, NetError, Transport, TransportExt};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One served value: the snapshot the answering agent holds for the
/// vertex, plus the consistency tag identifying which completed run
/// (and which ingest watermark) it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotValue {
    /// Encoded program state (decode with the algorithm's `decode`).
    pub state: u64,
    /// Id of the completed run the snapshot was taken from (0 when the
    /// values were restored from a checkpoint, whose run id went
    /// unrecorded).
    pub run: u64,
    /// The snapshot's ingest batch watermark: the batches folded before
    /// its run was launched, the same on every agent — the staleness
    /// handle of Definition 2.6.
    pub watermark: u64,
}

/// A kept view and the locator built from it.
type Kept = (DirectoryView, EdgeLocator);

/// The address of `v`'s primary under `kept`.
fn primary((view, locator): &Kept, v: VertexId) -> Option<&Addr> {
    view.addr_of(locator.ring().owner(v)?)
}

/// A reader: the kept view, and the directory that hands out newer ones.
pub struct Reader {
    transport: Arc<dyn Transport>,
    cfg: SystemConfig,
    directory: Addr,
    kept: Mutex<Arc<Kept>>,
}

impl Reader {
    /// Connect through a directory address, fetching its view.
    pub fn connect(
        transport: Arc<dyn Transport>,
        cfg: SystemConfig,
        directory: Addr,
    ) -> Result<Reader, NetError> {
        let view = fetch_view(&*transport, &cfg, &directory)?;
        let locator = view.locator();
        let kept = Mutex::new(Arc::new((view, locator)));
        Ok(Reader {
            transport,
            cfg,
            directory,
            kept,
        })
    }

    fn kept(&self) -> Arc<Kept> {
        self.kept.lock().expect("reader lock").clone()
    }

    /// The kept view.
    pub fn view(&self) -> DirectoryView {
        self.kept().0.clone()
    }

    /// Fetch the directory's view and keep it, unless the kept one is
    /// newer.
    pub fn refresh(&self) -> Result<(), NetError> {
        let view = fetch_view(&*self.transport, &self.cfg, &self.directory)?;
        let mut kept = self.kept.lock().expect("reader lock");
        if view.epoch >= kept.0.epoch {
            let locator = view.locator();
            *kept = Arc::new((view, locator));
        }
        Ok(())
    }

    /// Read `vertices` from their primaries' snapshots, answers in the
    /// order asked: one QUERY_BATCH per primary under the kept view, all
    /// in flight together ([`Transport::request_all`]). An agent that
    /// holds run `min_run` open answers at its snapshot flip (0 waits
    /// for no run).
    ///
    /// A vertex answered `ANSWER_MISS`, or whose request failed, costs
    /// one fetch of the view and is asked again once, where the fetched
    /// view names another primary. `None` marks a vertex that is gone,
    /// has no completed-run value, or whose primary did not answer.
    /// Every `Some` from one agent shares its `(run, watermark)` tag.
    pub fn read(&self, vertices: &[VertexId], min_run: u64) -> Vec<Option<SnapshotValue>> {
        let mut answers = vec![None; vertices.len()];
        let kept = self.kept();
        let all: Vec<usize> = (0..vertices.len()).collect();
        let again = self.ask(&kept, vertices, &all, min_run, &mut answers);
        if again.is_empty() || self.refresh().is_err() {
            return answers;
        }
        let fresh = self.kept();
        let moved = |&i: &usize| primary(&fresh, vertices[i]) != primary(&kept, vertices[i]);
        let again: Vec<usize> = again.into_iter().filter(moved).collect();
        self.ask(&fresh, vertices, &again, min_run, &mut answers);
        answers
    }

    /// Ask each primary under `kept` for the vertices at `positions`
    /// and put the hits in `answers`; returns the positions to ask
    /// again: the misses and those whose request failed.
    fn ask(
        &self,
        kept: &Kept,
        vertices: &[VertexId],
        positions: &[usize],
        min_run: u64,
        answers: &mut [Option<SnapshotValue>],
    ) -> Vec<usize> {
        let mut again = Vec::new();
        let mut by_primary: HashMap<&Addr, Vec<usize>> = HashMap::new();
        for &i in positions {
            match primary(kept, vertices[i]) {
                Some(addr) => by_primary.entry(addr).or_default().push(i),
                None => again.push(i),
            }
        }
        let groups: Vec<(&Addr, Vec<usize>)> = by_primary.into_iter().collect();
        let requests: Vec<(&Addr, Frame)> = groups
            .iter()
            .map(|(addr, at)| {
                let asked: Vec<VertexId> = at.iter().map(|&i| vertices[i]).collect();
                (*addr, msg::encode_query_batch(min_run, &asked))
            })
            .collect();
        let replies = self.transport.request_all_with_retry(
            &requests,
            self.cfg.request_timeout,
            &self.cfg.send_policy,
        );
        for ((_, at), reply) in groups.iter().zip(replies) {
            let reply = reply.ok();
            let rep = reply.as_ref().and_then(msg::decode_query_batch_rep);
            let Some(rep) = rep.filter(|r| r.records.len() == at.len()) else {
                again.extend(at);
                continue;
            };
            for (&i, a) in at.iter().zip(rep.records.iter()) {
                match a.found {
                    msg::ANSWER_HIT => {
                        answers[i] = Some(SnapshotValue {
                            state: a.state,
                            run: rep.run,
                            watermark: rep.watermark,
                        })
                    }
                    msg::ANSWER_MISS => again.push(i),
                    _ => {}
                }
            }
        }
        again
    }
}

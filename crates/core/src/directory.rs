//! The directory system (paper §3.3).
//!
//! "Inside of the directory system, there are Directories and a single
//! DirectoryMaster. The DirectoryMaster serves as a bootstrap service
//! ... When Agents join or leave, or the graph changes enough to
//! impact load balancing, Agents inform their respective Directory
//! server. To keep each Directory in sync, all Directories internally
//! broadcast messages appropriately."
//!
//! One directory (id 0) acts as the *lead*: it owns the authoritative
//! [`DirectoryView`](crate::msg::DirectoryView), evaluates every
//! barrier, and publishes VIEW / START / ADVANCE / SHUTDOWN frames on
//! the global bus. Its decisions are the IO-free `lead::Lead`; this
//! module is the sockets and the clock around it (`lead_loop`).
//! Non-lead directories serve their connected agents by relaying
//! reports to the lead and mirroring broadcasts — the paper's
//! "Directories re-broadcast ready messages among themselves" (Figure
//! 2, step 4).

use crate::config::SystemConfig;
use crate::lead::{Effect, Held, Lead};
use crate::msg::{packet, DirectoryView, Message};
use elga_hash::AgentId;
use elga_net::{Addr, Frame, Mailbox, NetError, Publisher, ReplyHandle, Transport, TransportExt};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The agent mailbox address convention shared by the whole workspace.
pub fn agent_addr(id: AgentId) -> Addr {
    Addr::inproc(format!("agent-{id}"))
}

/// Directory mailbox address convention.
pub fn directory_addr(id: u64) -> Addr {
    Addr::inproc(format!("dir-{id}"))
}

/// The global broadcast bus address convention.
pub fn bus_addr() -> Addr {
    Addr::inproc("bus")
}

/// DirectoryMaster bootstrap address convention.
pub fn master_addr() -> Addr {
    Addr::inproc("master")
}

/// Spawn the DirectoryMaster: a bootstrap registry handing out
/// directory addresses round-robin (§3.3: "queried once by any
/// component to find a Directory").
pub fn spawn_master(transport: Arc<dyn Transport>, addr: Addr) -> std::thread::JoinHandle<()> {
    let mailbox = transport.bind(&addr).expect("bind master");
    std::thread::Builder::new()
        .name("elga-master".into())
        .spawn(move || {
            let mut directories: Vec<Addr> = Vec::new();
            let mut next = 0usize;
            while let Ok(d) = mailbox.recv() {
                match d.frame.packet_type() {
                    packet::DIR_REGISTER => {
                        if let Some(s) = d
                            .frame
                            .reader()
                            .bytes()
                            .and_then(|b| std::str::from_utf8(b).ok())
                        {
                            if let Ok(a) = Addr::parse(s) {
                                directories.push(a);
                            }
                        }
                        if let Some(reply) = d.reply {
                            let _ = reply.send(Frame::signal(packet::OK));
                        }
                    }
                    packet::GET_DIRECTORY => {
                        let reply_frame = if directories.is_empty() {
                            Frame::signal(packet::GET_DIRECTORY)
                        } else {
                            let a = &directories[next % directories.len()];
                            next += 1;
                            Frame::builder(packet::GET_DIRECTORY)
                                .bytes(a.to_string().as_bytes())
                                .finish()
                        };
                        if let Some(reply) = d.reply {
                            let _ = reply.send(reply_frame);
                        }
                    }
                    packet::SHUTDOWN => break,
                    _ => {}
                }
            }
        })
        .expect("spawn master")
}

/// Ask the master for a directory address.
pub fn bootstrap_directory(
    transport: &dyn Transport,
    master: &Addr,
    timeout: Duration,
) -> Result<Addr, NetError> {
    let rep = transport.request(master, Frame::signal(packet::GET_DIRECTORY), timeout)?;
    let bytes = rep
        .reader()
        .bytes()
        .ok_or(NetError::Protocol("no directory registered"))?;
    let s = std::str::from_utf8(bytes).map_err(|_| NetError::Protocol("bad directory addr"))?;
    Addr::parse(s).map_err(|_| NetError::Protocol("bad directory addr"))
}

/// Ask a directory for its view.
pub fn fetch_view(
    transport: &dyn Transport,
    cfg: &SystemConfig,
    directory: &Addr,
) -> Result<DirectoryView, NetError> {
    let ask = Frame::signal(packet::GET_VIEW);
    let (rep, _) =
        transport.request_with_retry(directory, ask, cfg.request_timeout, &cfg.send_policy)?;
    DirectoryView::decode(&rep).ok_or(NetError::Protocol("bad view"))
}

/// Spawn a Directory entity using the in-process address conventions.
///
/// Directory 0 is the lead: it binds the global bus publisher and owns
/// all coordination state. Non-lead directories relay their agents'
/// traffic to the lead (Figure 2's inter-directory re-broadcast).
pub fn spawn_directory(
    transport: Arc<dyn Transport>,
    cfg: SystemConfig,
    id: u64,
    master: Addr,
) -> std::thread::JoinHandle<()> {
    let role = if id == 0 {
        DirectoryRole::Lead { bus: bus_addr() }
    } else {
        DirectoryRole::Relay {
            lead: directory_addr(0),
            bus: bus_addr(),
        }
    };
    spawn_directory_at(transport, cfg, id, master, directory_addr(id), role)
}

/// Which role a directory plays, with the addresses it needs.
#[derive(Debug, Clone)]
pub enum DirectoryRole {
    /// The lead directory: binds the broadcast bus at this address.
    Lead {
        /// PUB endpoint to bind (for TCP, a concrete port).
        bus: Addr,
    },
    /// A relay directory: forwards to the lead and watches the bus for
    /// shutdown.
    Relay {
        /// The lead directory's mailbox address.
        lead: Addr,
        /// The broadcast bus to subscribe to.
        bus: Addr,
    },
}

/// Spawn a Directory entity at explicit addresses — the
/// deployment-agnostic form used by TCP clusters, where every endpoint
/// is a concrete `tcp://host:port` (the paper's scripts configure
/// hosts the same way; see its Artifact Description).
pub fn spawn_directory_at(
    transport: Arc<dyn Transport>,
    cfg: SystemConfig,
    id: u64,
    master: Addr,
    addr: Addr,
    role: DirectoryRole,
) -> std::thread::JoinHandle<()> {
    let mailbox = transport.bind(&addr).expect("bind directory");
    let actual = mailbox.addr().clone();
    // The lead's bus must be listening before this function returns:
    // participants subscribe to it immediately after their JOIN.
    let prepared = match role {
        DirectoryRole::Lead { bus } => {
            let publisher = transport.bind_publisher(&bus).expect("bind bus");
            Ok(publisher)
        }
        DirectoryRole::Relay { lead, bus } => Err((lead, bus)),
    };
    // Register with the master before serving.
    let _ = transport.request(
        &master,
        Frame::builder(packet::DIR_REGISTER)
            .bytes(actual.to_string().as_bytes())
            .finish(),
        cfg.request_timeout,
    );
    std::thread::Builder::new()
        .name(format!("elga-dir-{id}"))
        .spawn(move || match prepared {
            Ok(publisher) => lead_loop(transport, cfg, mailbox, publisher),
            Err((lead, bus)) => relay_loop(transport, cfg, mailbox, lead, bus),
        })
        .expect("spawn directory")
}

/// The lead's shell: hands the [`Lead`] every frame of its mailbox and
/// a tick before each wait for one (at least every 20 ms, and off the
/// path from a READY to the ADVANCE it releases), with the time, and
/// carries out what it queued.
fn lead_loop(
    transport: Arc<dyn Transport>,
    cfg: SystemConfig,
    mailbox: Mailbox,
    publisher: Publisher,
) {
    let mut lead = Lead::new(&cfg, Instant::now());
    let mut held = Vec::new();
    loop {
        lead.on_tick(Instant::now());
        carry_out(&mut lead, &*transport, &publisher, None, &mut held);
        let d = match mailbox.recv_timeout(Duration::from_millis(20)) {
            Ok(d) => d,
            Err(NetError::Timeout) => continue,
            Err(_) => break,
        };
        lead.on_frame(Instant::now(), &d.frame);
        carry_out(&mut lead, &*transport, &publisher, d.reply, &mut held);
        if d.frame.packet_type() == packet::SHUTDOWN {
            break;
        }
    }
}

/// Carry out the lead's effects in the order it queued them; `reply`
/// answers the frame just handled, if its sender waits for one, and
/// `held` keeps the answers the lead put off, under their keys.
fn carry_out(
    lead: &mut Lead,
    transport: &dyn Transport,
    publisher: &Publisher,
    mut reply: Option<ReplyHandle>,
    held: &mut Vec<(Held, ReplyHandle)>,
) {
    for effect in lead.effects() {
        match effect {
            Effect::Publish(frame) => {
                publisher.publish(&frame);
            }
            Effect::Reply(frame) => {
                if let Some(reply) = reply.take() {
                    let _ = reply.send(frame);
                }
            }
            Effect::Send(addr, frame) => {
                if let Ok(out) = transport.sender(&addr) {
                    let _ = out.send(frame);
                }
            }
            Effect::Hold(key) => held.extend(reply.take().map(|r| (key, r))),
            Effect::Answer(key, frame) => {
                let (answered, kept): (Vec<_>, Vec<_>) =
                    held.drain(..).partition(|(k, _)| *k == key);
                *held = kept;
                for (_, reply) in answered {
                    let _ = reply.send(frame.clone());
                }
            }
            Effect::Log(line) => eprintln!("{line}"),
        }
    }
}

/// Non-lead directories proxy their agents to the lead.
fn relay_loop(
    transport: Arc<dyn Transport>,
    cfg: SystemConfig,
    mailbox: Mailbox,
    lead_addr: Addr,
    bus: Addr,
) {
    let lead_push = transport.sender(&lead_addr).expect("lead sender");
    // Exit alongside the rest of the system.
    let shutdown = transport
        .subscribe(&bus, &[packet::SHUTDOWN])
        .expect("bus subscribe");
    loop {
        if shutdown.try_recv().ok().flatten().is_some() {
            break;
        }
        let d = match mailbox.recv_timeout(Duration::from_millis(50)) {
            Ok(d) => d,
            Err(NetError::Timeout) => continue,
            Err(_) => break,
        };
        if d.frame.packet_type() == packet::SHUTDOWN {
            break;
        }
        // A frame relays as it was delivered: a request as a request,
        // its answer back to the asker, and a push as a push (Figure 2
        // step 4: re-broadcast ready messages among Directories).
        match d.reply {
            Some(reply) => {
                if let Ok(frame) = transport.request(&lead_addr, d.frame, cfg.request_timeout) {
                    let _ = reply.send(frame);
                }
            }
            None => {
                let _ = lead_push.send(d.frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_conventions_are_stable() {
        assert_eq!(agent_addr(3).to_string(), "inproc://agent-3");
        assert_eq!(directory_addr(0).to_string(), "inproc://dir-0");
        assert_eq!(bus_addr().to_string(), "inproc://bus");
        assert_eq!(master_addr().to_string(), "inproc://master");
    }
}

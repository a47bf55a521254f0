//! An in-memory wire behind the connection table's [`Sockets`], for the
//! reactor's tests in virtual time: connections are pairs of byte queues,
//! listeners are backlogs, and faults are scripted.

use super::io::{Sockets, OUT_OF_FDS};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{ErrorKind, Result};
use std::rc::Rc;

/// One end of an in-memory connection: the table's token for it (`None`
/// for the test's end), the bytes its peer wrote, and the connect's
/// answer: accepted, refused, or `None` while its SYN goes unanswered.
#[derive(Default)]
pub(super) struct End {
    pub(super) token: Option<u64>,
    pub(super) peer: usize,
    pub(super) rx: VecDeque<u8>,
    pub(super) closed: bool,
    pub(super) answer: Option<bool>,
    pub(super) write_off: bool,
}

/// The connections; the listeners, as address → (the table's token, or
/// `None` for the test's, ends to accept, paused); and the scripted
/// faults: addresses whose SYNs go unanswered, and accepts out of
/// descriptors.
#[derive(Default)]
pub(super) struct Wire {
    pub(super) ends: Vec<End>,
    pub(super) listeners: BTreeMap<u32, (Option<u64>, VecDeque<usize>, bool)>,
    pub(super) black_holes: BTreeSet<u32>,
    pub(super) out_of_fds: bool,
    pub(super) accepts: u32,
}

pub(super) type Net = Rc<RefCell<Wire>>;
/// The table's sockets, a stream end and a listening address; dropping
/// either of the last two closes it.
pub(super) struct Fake(pub(super) Net);
pub(super) struct Conn(Net, usize);
pub(super) struct Listening(pub(super) Net, pub(super) u32);
impl Drop for Conn {
    fn drop(&mut self) {
        self.0.borrow_mut().ends[self.1].closed = true;
    }
}
impl Drop for Listening {
    fn drop(&mut self) {
        self.0.borrow_mut().listeners.remove(&self.1);
    }
}

impl Wire {
    /// A connection to `addr` from an end the table holds as `token`;
    /// returns that end.
    pub(super) fn dial(&mut self, addr: u32, token: Option<u64>) -> usize {
        let (me, listening) = (self.ends.len(), self.listeners.contains_key(&addr));
        let answer = (!self.black_holes.contains(&addr)).then_some(listening);
        let mut pair = [End::default(), End::default()];
        (pair[0].token, pair[0].peer, pair[1].peer) = (token, me + 1, me);
        (pair[0].answer, pair[1].answer) = (answer, answer);
        self.ends.extend(pair);
        if let (Some(true), Some(l)) = (answer, self.listeners.get_mut(&addr)) {
            l.1.push_back(me + 1);
        }
        me
    }

    /// What a level-triggered readiness set reports to the table.
    pub(super) fn ready(&self) -> Vec<(u64, bool, bool)> {
        let mut ready = Vec::new();
        for end in self.ends.iter().filter(|end| !end.closed) {
            let Some(token) = end.token else { continue };
            let eof = end.answer == Some(true) && self.ends[end.peer].closed;
            let writable = !end.write_off && end.answer.is_some();
            ready.push((token, !end.rx.is_empty() || eof, writable));
        }
        for (token, backlog, paused) in self.listeners.values() {
            if let (Some(token), false, false) = (token, paused, backlog.is_empty()) {
                ready.push((*token, true, false));
            }
        }
        ready
    }
}

impl Sockets for Fake {
    type Listener = Listening;
    type Stream = Conn;
    type Addr = u32;
    fn listen(&mut self, l: &Listening, token: u64) -> Result<()> {
        let listener = (Some(token), VecDeque::new(), false);
        self.0.borrow_mut().listeners.insert(l.1, listener);
        Ok(())
    }
    fn accepting(&mut self, l: &Listening, _: u64, on: bool) -> Result<()> {
        self.0.borrow_mut().listeners.get_mut(&l.1).unwrap().2 = !on;
        Ok(())
    }
    fn accept(&mut self, l: &Listening, token: u64) -> Result<Conn> {
        let mut wire = self.0.borrow_mut();
        wire.accepts += 1;
        if wire.out_of_fds {
            return Err(std::io::Error::from_raw_os_error(OUT_OF_FDS[0]));
        }
        let end = wire.listeners.get_mut(&l.1).unwrap().1.pop_front();
        let end = end.ok_or(ErrorKind::WouldBlock)?;
        wire.ends[end].token = Some(token);
        Ok(Conn(self.0.clone(), end))
    }
    fn connect(&mut self, addr: u32, token: u64) -> Result<Conn> {
        let end = self.0.borrow_mut().dial(addr, Some(token));
        Ok(Conn(self.0.clone(), end))
    }
    fn read(&mut self, s: &Conn, buf: &mut [u8]) -> Result<usize> {
        let mut wire = self.0.borrow_mut();
        let eof = wire.ends[s.1].answer == Some(true) && wire.ends[wire.ends[s.1].peer].closed;
        let rx = &mut wire.ends[s.1].rx;
        let n = buf.len().min(rx.len());
        buf.iter_mut().zip(rx.drain(..n)).for_each(|(b, x)| *b = x);
        if n == 0 && !eof {
            return Err(ErrorKind::WouldBlock.into());
        }
        Ok(n)
    }
    fn write(&mut self, s: &Conn, buf: &[u8]) -> Result<usize> {
        let mut wire = self.0.borrow_mut();
        let (answer, peer) = (wire.ends[s.1].answer, wire.ends[s.1].peer);
        if answer != Some(true) || wire.ends[peer].closed {
            return Err(ErrorKind::BrokenPipe.into());
        }
        wire.ends[peer].rx.extend(buf);
        Ok(buf.len())
    }
    fn write_interest(&mut self, s: &Conn, _: u64, on: bool) -> Result<()> {
        self.0.borrow_mut().ends[s.1].write_off = !on;
        Ok(())
    }
}

//! The reference model of the disk's two contracts, and the one checker
//! every LD-level crash suite recovers against (docs/INVARIANTS.md I7
//! and I8).
//!
//! A suite drives the disk through the model's mirrors of the `Lld`
//! calls ([`Model::write`], [`Model::end_aru`], …), each of which calls
//! the disk and records what the call did as it returns. One call is
//! one *unit*:
//! - an allocation (`new_list`, and the identifier half of `new_block`),
//!   which the disk commits at once, inside an ARU too;
//! - a simple operation (the link half of a simple `new_block`, a
//!   write, a delete);
//! - an ARU commit: every operation the ARU made, in order;
//! - a tagged commit: the same plus its client's row, moved to its
//!   write id;
//! - a `Hello` that raises a client's generation: the row, at the new
//!   generation and floor 0.
//!
//! An abort, and a tagged commit settled without running (a retry of
//! the floor, an id below it or past the next), record nothing. A call that returns `Err` is recorded as a unit that
//! returned `Err`: it must not survive. Every unit recorded before a
//! `flush` that returned `Ok` ([`Model::flush`], [`Model::synced`]) is
//! durable.
//!
//! [`Model::check`] holds a recovered disk to both contracts at once:
//! some `k` between the durable units and the acknowledged ones must
//! leave the model equal to the disk in every list's walk, every
//! block's content or absence (a block on no list may be gone: recovery
//! frees orphans), and every client's row: its generation and floor,
//! read back through the disk's own answers (`w ≤ floor` settles as
//! applied, `floor + 1` as not, and a `Hello` at an older generation is
//! refused). So each unit is there whole or not at all (I7), no durable
//! one is lost, none survives without the units before it, none that
//! returned `Err` survives, and a row moves exactly where its unit's
//! effects are (I8). The model is of `Concurrent` mode, where an ARU's
//! operations reach the committed state at its commit.

#![allow(dead_code)] // each suite uses its own subset

use ld_core::{AruId, BlockId, Ctx, ListId, Lld, LldError, Position, TaggedCommit};
use ld_disk::BlockDevice;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

type Result<T> = std::result::Result<T, LldError>;

/// What a unit is, for the checker's report.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Allocation,
    Simple,
    Aru,
    Tagged { client: u64, write_id: u64 },
    Raise { client: u64, generation: u64 },
}

#[derive(Clone, Debug)]
enum Op {
    NewList(ListId),
    NewBlock(BlockId),
    Link(ListId, BlockId, Position),
    Write(BlockId, Bytes),
    DeleteBlock(BlockId),
    DeleteList(ListId),
    /// A client's row: its generation and floor.
    Row(u64, u64, u64),
}

#[derive(Clone, Debug)]
struct Unit {
    kind: Kind,
    ops: Vec<Op>,
    /// Its call returned `Ok`.
    acked: bool,
}

/// One thing the checker compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Obs {
    List(ListId),
    Block(BlockId),
    Row(u64),
}

/// What a disk or the model shows for an [`Obs`]. A block's content is
/// kept up to its last non-zero sector.
#[derive(Clone, Debug, PartialEq)]
enum Seen {
    Absent,
    Walk(Vec<BlockId>),
    Bytes(Bytes),
    /// The model's block on no list: recovery frees it as an orphan, so
    /// a disk shows it or nothing.
    Orphan(Bytes),
    /// A client's generation and floor.
    Row(u64, u64),
    /// A row whose write ids the disk settles otherwise than its floor
    /// says, or that takes a `Hello` at an older generation.
    Misread(u64, u64),
}

impl Seen {
    /// Whether a disk that shows `got` agrees with the model's `self`.
    fn fits(&self, got: &Seen) -> bool {
        match (self, got) {
            (Seen::Orphan(_), Seen::Absent) => true,
            (Seen::Orphan(c), Seen::Bytes(g)) => c == g,
            _ => self == got,
        }
    }
}

/// A block's content up to its last non-zero sector, shared between
/// the unit that wrote it and the states that hold it.
type Bytes = Arc<[u8]>;

/// `data` without its trailing zero sectors: one value for one
/// block's bytes, and quick to find.
fn trimmed(data: &[u8]) -> Bytes {
    const ZERO: [u8; 512] = [0; 512];
    let sectors = (data.chunks(512).rposition(|s| s != &ZERO[..s.len()])).map_or(0, |i| i + 1);
    data[..data.len().min(sectors * 512)].into()
}

/// The committed state after some units.
#[derive(Clone, Debug, Default)]
struct State {
    lists: BTreeMap<ListId, Vec<BlockId>>,
    blocks: BTreeMap<BlockId, Bytes>,
    linked: BTreeSet<BlockId>,
    rows: BTreeMap<u64, (u64, u64)>,
}

impl State {
    /// Applies `op`, noting what it changed in `touched`. An operation
    /// on what is not there does nothing (the unit it belongs to
    /// returned `Err`).
    fn apply(&mut self, op: &Op, touched: &mut Vec<Obs>) {
        match op {
            Op::NewList(l) => {
                self.lists.insert(*l, Vec::new());
                touched.push(Obs::List(*l));
            }
            Op::NewBlock(b) => {
                self.blocks.insert(*b, Bytes::default());
                touched.push(Obs::Block(*b));
            }
            Op::Link(l, b, pos) => {
                if let Some(walk) = self.lists.get_mut(l) {
                    let at = match pos {
                        Position::After(p) => walk.iter().position(|x| x == p).map_or(0, |i| i + 1),
                        Position::First => 0,
                    };
                    walk.insert(at, *b);
                    self.linked.insert(*b);
                    touched.extend([Obs::List(*l), Obs::Block(*b)]);
                }
            }
            Op::Write(b, data) => {
                if let Some(content) = self.blocks.get_mut(b) {
                    *content = data.clone();
                    touched.push(Obs::Block(*b));
                }
            }
            Op::DeleteBlock(b) => {
                self.blocks.remove(b);
                self.linked.remove(b);
                touched.push(Obs::Block(*b));
                for (l, walk) in &mut self.lists {
                    if let Some(i) = walk.iter().position(|x| x == b) {
                        walk.remove(i);
                        touched.push(Obs::List(*l));
                    }
                }
            }
            Op::DeleteList(l) => {
                for b in self.lists.remove(l).into_iter().flatten() {
                    self.blocks.remove(&b);
                    self.linked.remove(&b);
                    touched.push(Obs::Block(b));
                }
                touched.push(Obs::List(*l));
            }
            Op::Row(c, g, floor) => {
                self.rows.insert(*c, (*g, *floor));
                touched.push(Obs::Row(*c));
            }
        }
    }

    fn seen(&self, o: Obs) -> Seen {
        match o {
            Obs::List(l) => self
                .lists
                .get(&l)
                .map_or(Seen::Absent, |w| Seen::Walk(w.clone())),
            Obs::Block(b) => match self.blocks.get(&b) {
                Some(c) if self.linked.contains(&b) => Seen::Bytes(c.clone()),
                Some(c) => Seen::Orphan(c.clone()),
                None => Seen::Absent,
            },
            Obs::Row(c) => (self.rows.get(&c)).map_or(Seen::Absent, |&(g, f)| Seen::Row(g, f)),
        }
    }
}

/// What `disk` shows of `o`, read into `buf` where it is a block.
fn observe<D: BlockDevice>(disk: &Lld<D>, o: Obs, buf: &mut [u8]) -> Seen {
    match o {
        Obs::List(l) => disk
            .list_blocks(Ctx::Simple, l)
            .map_or(Seen::Absent, Seen::Walk),
        Obs::Block(b) => disk
            .read(Ctx::Simple, b, buf)
            .map_or(Seen::Absent, |()| Seen::Bytes(trimmed(buf))),
        Obs::Row(c) => match disk.write_id_floor(c) {
            None => Seen::Absent,
            Some((g, f)) if reads(disk, c, g, f) => Seen::Row(g, f),
            Some((g, f)) => Seen::Misread(g, f),
        },
    }
}

/// Whether `disk` settles `client`'s write ids as a row at generation
/// `g` and floor `f` must: `f` and 1 applied (the floor and one below
/// it), `f + 1` not, `f + 2` out of sequence, and a `Hello` at `g − 1`
/// refused.
fn reads<D: BlockDevice>(disk: &Lld<D>, client: u64, g: u64, f: u64) -> bool {
    let lookup = |w: u64| disk.write_id_lookup(client, g, w);
    (f == 0 || matches!(lookup(f), Ok(Some(o)) if o.generation == g))
        && (f < 2
            || matches!(lookup(1), Err(LldError::WriteIdSuperseded { floor, .. }) if floor == f))
        && matches!(lookup(f + 1), Ok(None))
        && matches!(lookup(f + 2), Err(LldError::WriteIdOutOfSequence { .. }))
        && (g == 0 || disk.client_hello(client, g - 1).is_err())
}

impl std::fmt::Display for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Obs::List(l) => write!(f, "list {l}"),
            Obs::Block(b) => write!(f, "block {b}"),
            Obs::Row(c) => write!(f, "the row of client {c}"),
        }
    }
}

impl std::fmt::Display for Seen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Seen::Absent => write!(f, "nothing"),
            Seen::Walk(w) => write!(
                f,
                "{:?}",
                w.iter().map(|b| b.to_string()).collect::<Vec<_>>()
            ),
            Seen::Bytes(c) | Seen::Orphan(c) if c.is_empty() => write!(f, "zeros"),
            Seen::Bytes(c) | Seen::Orphan(c) => {
                let crc = ld_disk::crc32(c);
                write!(f, "{} bytes from {:#04x}, crc {crc:08x}", c.len(), c[0])
            }
            Seen::Row(g, floor) => write!(f, "generation {g}, floor {floor}"),
            Seen::Misread(g, floor) => {
                write!(f, "generation {g}, floor {floor}, misread by its lookups")
            }
        }
    }
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Kind::Allocation => write!(f, "an allocation"),
            Kind::Simple => write!(f, "a simple operation"),
            Kind::Aru => write!(f, "an ARU commit"),
            Kind::Tagged { client, write_id } => {
                write!(f, "a tagged commit (client {client}, write id {write_id})")
            }
            Kind::Raise { client, generation } => {
                write!(
                    f,
                    "a Hello (client {client}, raised to generation {generation})"
                )
            }
        }
    }
}

/// The units a history recorded, and how many of them are durable.
#[derive(Clone, Debug, Default)]
pub struct Model {
    units: Vec<Unit>,
    /// `units[..durable]` were recorded before a barrier that returned.
    durable: usize,
    /// What each open ARU has done so far.
    open: HashMap<AruId, Vec<Op>>,
    /// What [`verdict`](Self::verdict) compares, worked out once for
    /// the units recorded so far.
    plan: OnceCell<Plan>,
}

/// Everything any unit changes, and per unit its changes: a failed
/// unit's as if it had applied.
#[derive(Clone, Debug, Default)]
struct Plan {
    obs: Vec<Obs>,
    changes: Vec<Vec<Change>>,
}

/// One thing a unit changes (its index in [`Plan::obs`]), with what the
/// model shows of it before the unit and after.
type Change = (usize, Arc<Seen>, Arc<Seen>);

impl Model {
    fn record(&mut self, kind: Kind, ops: Vec<Op>, acked: bool) {
        self.units.push(Unit { kind, ops, acked });
        self.plan.take();
    }

    /// Records `op`: a unit of its own for a simple operation, the
    /// ARU's for one inside an ARU (only once it returned).
    fn op<T>(&mut self, ctx: Ctx, res: Result<T>, op: Op) -> Result<T> {
        match ctx {
            Ctx::Simple => self.record(Kind::Simple, vec![op], res.is_ok()),
            Ctx::Aru(aru) if res.is_ok() => self.open.entry(aru).or_default().push(op),
            Ctx::Aru(_) => {}
        }
        res
    }

    pub fn new_list<D: BlockDevice>(&mut self, ld: &Lld<D>, ctx: Ctx) -> Result<ListId> {
        let l = ld.new_list(ctx)?;
        self.record(Kind::Allocation, vec![Op::NewList(l)], true);
        Ok(l)
    }

    pub fn new_block<D: BlockDevice>(
        &mut self,
        ld: &Lld<D>,
        ctx: Ctx,
        list: ListId,
        pos: Position,
    ) -> Result<BlockId> {
        let b = ld.new_block(ctx, list, pos)?;
        self.record(Kind::Allocation, vec![Op::NewBlock(b)], true);
        self.op(ctx, Ok(b), Op::Link(list, b, pos))
    }

    pub fn write<D: BlockDevice>(
        &mut self,
        ld: &Lld<D>,
        ctx: Ctx,
        b: BlockId,
        data: &[u8],
    ) -> Result<()> {
        let res = ld.write(ctx, b, data);
        self.op(ctx, res, Op::Write(b, trimmed(data)))
    }

    pub fn delete_block<D: BlockDevice>(
        &mut self,
        ld: &Lld<D>,
        ctx: Ctx,
        b: BlockId,
    ) -> Result<()> {
        let res = ld.delete_block(ctx, b);
        self.op(ctx, res, Op::DeleteBlock(b))
    }

    pub fn delete_list<D: BlockDevice>(&mut self, ld: &Lld<D>, ctx: Ctx, l: ListId) -> Result<()> {
        let res = ld.delete_list(ctx, l);
        self.op(ctx, res, Op::DeleteList(l))
    }

    pub fn end_aru<D: BlockDevice>(&mut self, ld: &Lld<D>, aru: AruId) -> Result<()> {
        let res = ld.end_aru(aru);
        let ops = self.open.remove(&aru).unwrap_or_default();
        self.record(Kind::Aru, ops, res.is_ok());
        res
    }

    /// A tagged commit; one settled without running (its ARU aborted)
    /// records nothing.
    pub fn end_aru_tagged<D: BlockDevice>(
        &mut self,
        ld: &Lld<D>,
        aru: AruId,
        client: u64,
        generation: u64,
        write_id: u64,
    ) -> Result<TaggedCommit> {
        let res = ld.end_aru_tagged(aru, client, generation, write_id);
        let mut ops = self.open.remove(&aru).unwrap_or_default();
        let settled = matches!(
            res,
            Ok(TaggedCommit { deduped: true, .. })
                | Err(LldError::WriteIdSuperseded { .. } | LldError::WriteIdOutOfSequence { .. })
        );
        if !settled {
            ops.push(Op::Row(client, generation, write_id));
            self.record(Kind::Tagged { client, write_id }, ops, res.is_ok());
        }
        res
    }

    /// A `Hello`; one that raises the client's generation is a unit.
    pub fn client_hello<D: BlockDevice>(
        &mut self,
        ld: &Lld<D>,
        client: u64,
        generation: u64,
    ) -> Result<u64> {
        let raises = ld
            .write_id_floor(client)
            .is_some_and(|(g, _)| generation > g);
        let res = ld.client_hello(client, generation);
        if raises {
            let row = vec![Op::Row(client, generation, 0)];
            self.record(Kind::Raise { client, generation }, row, res.is_ok());
            if res.is_ok() {
                // It flushed before it answered.
                self.flushed(self.recorded());
            }
        }
        res
    }

    pub fn abort_aru<D: BlockDevice>(&mut self, ld: &Lld<D>, aru: AruId) -> Result<()> {
        self.open.remove(&aru);
        ld.abort_aru(aru)
    }

    pub fn flush<D: BlockDevice>(&mut self, ld: &Lld<D>) -> Result<()> {
        let upto = self.recorded();
        ld.flush()?;
        self.flushed(upto);
        Ok(())
    }

    /// The units recorded so far: what a barrier that begins now
    /// vouches for once it returns.
    pub fn recorded(&self) -> usize {
        self.units.len()
    }

    /// A barrier that began when `upto` units were recorded returned
    /// (on another thread, say, while more were recorded).
    pub fn flushed(&mut self, upto: usize) {
        self.durable = self.durable.max(upto);
    }

    /// Everything recorded so far is durable: a barrier other than
    /// [`flush`](Self::flush) returned (a checkpoint, say).
    pub fn synced(&mut self) {
        self.durable = self.units.len();
    }

    /// The last acknowledged unit at or before `p`, counting from 1 (0:
    /// none).
    fn acked_upto(&self, p: usize) -> usize {
        (1..=p)
            .rev()
            .find(|&j| self.units[j - 1].acked)
            .unwrap_or(0)
    }

    /// The last durable unit.
    pub fn durable(&self) -> usize {
        self.acked_upto(self.durable)
    }

    /// The last acknowledged unit.
    pub fn acknowledged(&self) -> usize {
        self.acked_upto(self.units.len())
    }

    /// The state the acknowledged units among the first `upto` leave.
    fn state(&self, upto: usize) -> State {
        let mut state = State::default();
        for unit in self.units[..upto].iter().filter(|u| u.acked) {
            unit.ops
                .iter()
                .for_each(|op| state.apply(op, &mut Vec::new()));
        }
        state
    }

    /// The lists and the blocks the acknowledged units leave.
    pub fn live(&self) -> (Vec<ListId>, Vec<BlockId>) {
        let state = self.state(self.units.len());
        (
            state.lists.into_keys().collect(),
            state.blocks.into_keys().collect(),
        )
    }

    /// The model of the disk that recovered to unit `k` (what
    /// [`check`](Self::check) returned): the units past it are gone,
    /// and what is left is durable.
    pub fn restart(&mut self, k: usize) {
        self.units.truncate(k);
        self.durable = k;
        self.open.clear();
        self.plan.take();
    }

    /// Holds `disk` to the model: panics, naming `at`, unless some
    /// prefix of the units from the durable ones to the acknowledged
    /// ones is what `disk` shows. Returns the longest such prefix.
    pub fn check<D: BlockDevice>(&self, disk: &Lld<D>, at: &str) -> usize {
        (self.verdict(disk, at, self.durable)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`check`](Self::check)'s verdict, with the report as the error,
    /// as if only the first `durable` units were durable: a cut during a
    /// call is held to the barriers that had returned when the call
    /// began ([`durable`](Self::durable) then).
    pub fn verdict<D: BlockDevice>(
        &self,
        disk: &Lld<D>,
        at: &str,
        durable: usize,
    ) -> std::result::Result<usize, String> {
        let plan = self.plan.get_or_init(|| self.plan());
        let mut buf = vec![0u8; disk.block_size()];
        let got: Vec<Seen> = plan
            .obs
            .iter()
            .map(|&o| observe(disk, o, &mut buf))
            .collect();
        // Every prefix in turn, from the empty disk, each unit's changes
        // compared as it is applied.
        let mut off: Vec<bool> = got.iter().map(|g| *g != Seen::Absent).collect();
        let mut bad = off.iter().filter(|&&x| x).count();
        let (mut matched, mut nearest) = (None, (usize::MAX, 0));
        for k in 0..=self.units.len() {
            if k > 0 && self.units[k - 1].acked {
                for (i, _, to) in &plan.changes[k - 1] {
                    let now = !to.fits(&got[*i]);
                    bad = bad + usize::from(now) - usize::from(off[*i]);
                    off[*i] = now;
                }
            }
            if k >= durable && bad == 0 {
                matched = Some(k);
            } else if k >= durable && bad < nearest.0 {
                nearest = (bad, k);
            }
        }
        match matched {
            Some(k) => Ok(self.acked_upto(k)),
            None => Err(self.report(at, plan, &got, [nearest.0, nearest.1, durable])),
        }
    }

    /// The [`Plan`] of the units recorded so far.
    fn plan(&self) -> Plan {
        let (mut plan, mut index, mut state) = (Plan::default(), BTreeMap::new(), State::default());
        // What the model shows of each thing after the acknowledged
        // units so far.
        let mut now: Vec<Arc<Seen>> = Vec::new();
        for unit in &self.units {
            let mut touched = Vec::new();
            let mut failed = (!unit.acked).then(|| state.clone());
            let st = failed.as_mut().unwrap_or(&mut state);
            unit.ops.iter().for_each(|op| st.apply(op, &mut touched));
            let mut changes: Vec<Change> = Vec::new();
            for o in touched {
                let i = *index.entry(o).or_insert_with(|| {
                    plan.obs.push(o);
                    now.push(Arc::new(Seen::Absent));
                    plan.obs.len() - 1
                });
                let after = Arc::new(st.seen(o));
                if now[i] != after && !changes.iter().any(|c| c.0 == i) {
                    changes.push((i, now[i].clone(), after));
                }
            }
            if unit.acked {
                changes
                    .iter()
                    .for_each(|(i, _, after)| now[*i] = after.clone());
            }
            plan.changes.push(changes);
        }
        plan
    }

    /// Why no prefix from `durable` on matches: the nearest one (`k`,
    /// with `n_off` differences), the first thing it differs in, and the
    /// unit that explains that, with its kind and what of it the disk
    /// holds.
    fn report(&self, at: &str, plan: &Plan, got: &[Seen], near: [usize; 3]) -> String {
        let [n_off, k, durable] = near;
        let n = self.units.len();
        // Whether the disk fits the thing a change is to before it and
        // after it.
        let fits = |(i, before, after): &Change| (before.fits(&got[*i]), after.fits(&got[*i]));
        let touches = |j: usize, i: usize| plan.changes[j].iter().any(|c| c.0 == i);
        // A unit past the prefix, or one that returned `Err`, whose
        // change the disk shows; else the last unit in it whose change
        // the disk lacks.
        let explain = |i: usize| {
            let shows = |j: &usize| {
                (*j >= k || !self.units[*j].acked)
                    && plan.changes[*j].iter().any(|c| c.0 == i && fits(c).1)
            };
            (0..n)
                .find(shows)
                .or_else(|| (0..k).rev().find(|&j| self.units[j].acked && touches(j, i)))
        };
        let want = self.state(k);
        let differ = (0..plan.obs.len()).filter(|&i| !want.seen(plan.obs[i]).fits(&got[i]));
        let first = differ
            .min_by_key(|&i| explain(i).unwrap_or(n))
            .expect("a difference");
        let head = format!(
            "{at}: no prefix from unit {} to unit {} is the recovered disk; the nearest, \
             through unit {k}, differs in {n_off}, first in {}: the disk holds {}, \
             the model {}",
            self.acked_upto(durable),
            self.acknowledged(),
            plan.obs[first],
            got[first],
            want.seen(plan.obs[first]),
        );
        let Some(j) = explain(first) else {
            return format!("{head}; no unit wrote that");
        };

        // What of unit `m` the disk holds and what it lacks, over what
        // no later unit changes again.
        let own = |m: usize| {
            let last = plan.changes[m]
                .iter()
                .filter(|c| !(m + 1..n).any(|l| touches(l, c.0)));
            let shown: Vec<Obs> = last
                .clone()
                .filter(|c| fits(c).1)
                .map(|c| plan.obs[c.0])
                .collect();
            let lacked = last
                .filter(|c| fits(c) == (true, false))
                .map(|c| plan.obs[c.0]);
            (shown, lacked.collect::<Vec<_>>())
        };
        let whole = |m: &usize| matches!(own(*m), (s, l) if !s.is_empty() && l.is_empty());
        let lost = |m: &usize| matches!(own(*m), (s, l) if s.is_empty() && !l.is_empty());
        let acked = |m: &usize| self.units[*m].acked;
        let name = |m: usize| format!("unit {}, {}", m + 1, self.units[m].kind);
        let outcomes = |v: &[Obs]| v.iter().all(|o| matches!(o, Obs::Row(..)));
        let verdict = match own(j) {
            (s, l) if !s.is_empty() && !l.is_empty() && outcomes(&l) => {
                format!("has effects without outcome: {} holds it", s[0])
            }
            (s, l) if !s.is_empty() && !l.is_empty() && outcomes(&s) => {
                format!("has an outcome without effects: {} does not hold it", l[0])
            }
            (s, l) if !s.is_empty() && !l.is_empty() => {
                format!("is torn: {} holds it, {} does not", s[0], l[0])
            }
            _ if !acked(&j) => "survives, although its call returned Err".to_string(),
            _ if j < durable => "is durable, and lost".to_string(),
            _ if j < k => match (j + 1..n).filter(acked).find(whole) {
                Some(m) => format!("is lost, and {} survives without it", name(m)),
                None => "is lost".to_string(),
            },
            _ => match (durable..j).filter(acked).find(lost) {
                Some(i) => format!("survives without {}", name(i)),
                None => "survives past the prefix".to_string(),
            },
        };
        format!("{head}; {}, {verdict}", name(j))
    }
}

/// The checker on hand-built images: a model told one history, a disk
/// that went through another. Fresh disks hand out the same
/// identifiers, so the two histories name the same blocks.
#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::LldConfig;
    use ld_disk::MemDisk;

    const BS: usize = 512;

    /// What a history does after units 1 to 10: a list of three blocks,
    /// each written with 1, flushed.
    type Then = fn(&Lld<MemDisk>, &mut Model, [BlockId; 3]);

    fn history(then: Then) -> (Lld<MemDisk>, Model) {
        let cfg = LldConfig {
            block_size: BS,
            segment_bytes: 16 * BS,
            ..LldConfig::default()
        };
        let ld = Lld::format(MemDisk::new(1 << 20), &cfg).unwrap();
        let mut m = Model::default();
        let l = m.new_list(&ld, Ctx::Simple).unwrap();
        let blocks = [(); 3].map(|()| m.new_block(&ld, Ctx::Simple, l, Position::First).unwrap());
        for b in blocks {
            m.write(&ld, Ctx::Simple, b, &[1; BS]).unwrap();
        }
        m.flush(&ld).unwrap();
        then(&ld, &mut m, blocks);
        (ld, m)
    }

    /// One ARU that writes `v` to `blocks`.
    fn put(ld: &Lld<MemDisk>, m: &mut Model, blocks: &[BlockId], v: u8) -> Result<()> {
        let aru = ld.begin_aru().unwrap();
        for &b in blocks {
            m.write(ld, Ctx::Aru(aru), b, &[v; BS])?;
        }
        m.end_aru(ld, aru)
    }

    /// The verdict of the model told `told` on what the disk that went
    /// through `went` recovers to.
    fn verdict(told: Then, went: Then) -> std::result::Result<usize, String> {
        let (ld, _) = history(went);
        ld.flush().unwrap();
        let image = ld.into_device().into_image();
        let (recovered, _) = Lld::recover(MemDisk::from_image(image)).unwrap();
        let (_, m) = history(told);
        m.verdict(&recovered, "the case", m.durable())
    }

    fn refused(told: Then, went: Then, why: &str) {
        let report = verdict(told, went).expect_err("the checker passed the disk");
        assert!(report.contains(why), "{report}");
    }

    #[test]
    fn a_torn_aru_is_refused() {
        let told: Then = |ld, m, b| {
            put(ld, m, &b[..2], 2).unwrap();
            m.flush(ld).unwrap();
        };
        let went: Then = |ld, _, b| ld.write(Ctx::Simple, b[0], &[2; BS]).unwrap();
        refused(told, went, "unit 11, an ARU commit, is torn: block b");
        // The disk that went through it passes.
        assert_eq!(verdict(told, told), Ok(11));
    }

    #[test]
    fn a_lost_durable_unit_is_refused() {
        let told: Then = |ld, m, b| {
            put(ld, m, &b[..2], 2).unwrap();
            m.flush(ld).unwrap();
        };
        refused(
            told,
            |_, _, _| {},
            "unit 11, an ARU commit, is durable, and lost",
        );
    }

    #[test]
    fn a_surviving_unit_that_returned_err_is_refused() {
        // The ARU's write to a block deleted under it fails its commit.
        let told: Then = |ld, m, b| {
            let aru = ld.begin_aru().unwrap();
            for x in b {
                m.write(ld, Ctx::Aru(aru), x, &[2; BS]).unwrap();
            }
            m.delete_block(ld, Ctx::Simple, b[2]).unwrap();
            assert!(m.end_aru(ld, aru).is_err());
            m.flush(ld).unwrap();
        };
        let went: Then = |ld, m, b| {
            m.delete_block(ld, Ctx::Simple, b[2]).unwrap();
            put(ld, m, &b[..2], 2).unwrap();
        };
        let why = "unit 12, an ARU commit, survives, although its call returned Err";
        refused(told, went, why);
    }

    #[test]
    fn effects_without_their_outcome_are_refused() {
        let told: Then = |ld, m, b| {
            let aru = ld.begin_aru().unwrap();
            m.write(ld, Ctx::Aru(aru), b[0], &[2; BS]).unwrap();
            m.end_aru_tagged(ld, aru, 5, 1, 1).unwrap();
            m.flush(ld).unwrap();
        };
        let went: Then = |ld, m, b| put(ld, m, &b[..1], 2).unwrap();
        let why = "unit 11, a tagged commit (client 5, write id 1), has effects without outcome";
        refused(told, went, why);
    }

    #[test]
    fn a_unit_without_the_one_before_it_is_refused() {
        let told: Then = |ld, m, b| {
            put(ld, m, &b[..1], 2).unwrap();
            put(ld, m, &b[1..2], 3).unwrap();
        };
        let went: Then = |ld, m, b| put(ld, m, &b[1..2], 3).unwrap();
        let why = "unit 12, an ARU commit, survives without unit 11, an ARU commit";
        refused(told, went, why);
    }
}

//! Every ordering of one invocation's attempt events, enumerated.
//!
//! The production [`Stub`] runs on an `InProcNetwork` and a
//! `VirtualClock` against two scripted fake members: sentinel A and member
//! B, both in the stub's view. Each request a member receives is answered by
//! the next event of a script:
//!
//! * a `Response`;
//! * silence past the reply timeout;
//! * `Redirected` to the other member;
//! * `Overloaded`;
//! * `WrongShard` naming the other member;
//! * a newer-epoch `PoolInfo` that omits the target (the target stays mute);
//! * closing the target's endpoint.
//!
//! Once the script runs out, every further request gets a `Response`, and a
//! `PoolInfoRequest` always gets the current view. Every script of one to
//! three events runs under `AtLeastOnce`, `AtMostOnce` and `Maybe`, with an
//! AIMD limiter installed, and each path is checked for:
//!
//! * one terminal event, strictly increasing attempts
//!   ([`Invariants::check`]);
//! * exactly one result, and nothing left in flight in the stub or the
//!   limiter;
//! * `Maybe`: exactly one `AttemptStarted`;
//! * `AtMostOnce`: a request delivered to a member never goes to another
//!   member unless an explicit refusal came in between, and a view that
//!   omits the pinned member ends the invocation in `OutcomeUnknown`.

use std::sync::Arc;

use elasticrmi::{
    AimdConfig, AimdLimiter, ClientLb, RmiError, RmiMessage, Semantics, SemanticsTable, Stub,
};
use erm_harness::{Invariants, Quiesce};
use erm_metrics::{TraceEvent, TraceHandle};
use erm_sim::{Clock, SimDuration, SimTime, VirtualClock};
use erm_transport::{EndpointId, Host, InProcNetwork, Mailbox, Network};

/// What a member does with one delivered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Reply,
    Silence,
    Redirect,
    Overload,
    WrongShard,
    ViewOmitsTarget,
    CloseTarget,
}

const EVENTS: [Event; 7] = [
    Event::Reply,
    Event::Silence,
    Event::Redirect,
    Event::Overload,
    Event::WrongShard,
    Event::ViewOmitsTarget,
    Event::CloseTarget,
];

const SEMANTICS: [Semantics; 3] = [
    Semantics::AtLeastOnce,
    Semantics::AtMostOnce,
    Semantics::Maybe,
];

/// The pool as the fake members describe it.
struct View {
    epoch: u64,
    sentinel: EndpointId,
    members: Vec<EndpointId>,
}

impl View {
    fn message(&self) -> RmiMessage {
        RmiMessage::PoolInfo {
            epoch: self.epoch,
            sentinel: self.sentinel,
            members: self.members.clone(),
            uids: self.members.iter().map(|m| m.0).collect(),
        }
    }
}

/// One path: the stub, its two fake members and what the script has done.
struct Path<'a> {
    net: InProcNetwork,
    stub_endpoint: EndpointId,
    members: [(EndpointId, Mailbox); 2],
    view: View,
    script: &'a [Event],
    delivered: usize,
    /// `AtMostOnce`: the member the request was last delivered to, unless
    /// an explicit refusal came after.
    pinned: Option<EndpointId>,
    /// Set when a newer view omitted the pinned member.
    pin_lost: Option<EndpointId>,
    semantics: Semantics,
}

impl Path<'_> {
    /// Answers everything waiting at a live member; returns how many
    /// messages it handled.
    fn serve(&mut self) -> usize {
        let mut served = 0;
        for k in 0..2 {
            let (me, other) = (self.members[k].0, self.members[1 - k].0);
            while self.net.endpoint_open(me) {
                let Ok(d) = self.members[k].1.try_recv() else {
                    break;
                };
                served += 1;
                match RmiMessage::decode(&d.payload).unwrap() {
                    RmiMessage::PoolInfoRequest => {
                        let _ = self.net.send(me, d.from, self.view.message().encode());
                    }
                    RmiMessage::Request { call, context, .. } => {
                        self.on_request(me, other, call, context.deadline);
                    }
                    other => panic!("{:?}: unexpected {other:?}", self.script),
                }
            }
        }
        served
    }

    fn on_request(&mut self, me: EndpointId, other: EndpointId, call: u64, deadline: SimTime) {
        let event = self
            .script
            .get(self.delivered)
            .copied()
            .unwrap_or(Event::Reply);
        self.delivered += 1;
        if self.semantics == Semantics::AtMostOnce {
            if let Some(pinned) = self.pinned {
                assert_eq!(
                    pinned, me,
                    "{:?}: an at-most-once request delivered to {pinned} went to {me} \
                     without a refusal in between",
                    self.script
                );
            }
            self.pinned = Some(me);
        }
        let reply = match event {
            Event::Reply => Some(RmiMessage::Response {
                call,
                outcome: Ok(erm_transport::to_bytes(&1u32).unwrap()),
                replayed: false,
            }),
            Event::Silence | Event::CloseTarget | Event::ViewOmitsTarget => None,
            Event::Redirect => Some(RmiMessage::Redirected {
                call,
                members: vec![other],
                deadline,
            }),
            Event::Overload => Some(RmiMessage::Overloaded {
                call,
                queue_depth: 1,
                retry_after: SimDuration::from_millis(10),
            }),
            Event::WrongShard => Some(RmiMessage::WrongShard {
                call,
                epoch: self.view.epoch,
                owner: other,
                deadline,
            }),
        };
        if matches!(event, Event::Redirect | Event::Overload | Event::WrongShard) {
            self.pinned = None;
        }
        if let Some(reply) = reply {
            self.net
                .send(me, self.stub_endpoint, reply.encode())
                .unwrap();
        }
        match event {
            Event::CloseTarget => self.net.close_endpoint(me),
            Event::ViewOmitsTarget => {
                self.view = View {
                    epoch: self.view.epoch + 1,
                    sentinel: other,
                    members: vec![other],
                };
                if self.pinned == Some(me) {
                    self.pin_lost = Some(me);
                }
                self.net
                    .send(other, self.stub_endpoint, self.view.message().encode())
                    .unwrap();
            }
            _ => {}
        }
    }
}

/// Runs one script under one semantics, checks every property and returns
/// how the invocation ended.
fn run(semantics: Semantics, script: &[Event]) -> &'static str {
    let net = InProcNetwork::new();
    let clock = Arc::new(VirtualClock::new());
    let a = net.open();
    let b = net.open();
    let (stub_endpoint, stub_mailbox) = net.open();
    let mut stub = Stub::open(
        Arc::new(net.clone()),
        stub_endpoint,
        stub_mailbox,
        a.0,
        ClientLb::RoundRobin,
        clock.clone(),
    )
    .unwrap();
    stub.set_reply_timeout(SimDuration::from_millis(100));
    stub.set_invocation_budget(SimDuration::from_secs(1));
    stub.set_semantics(SemanticsTable::new().method("m", semantics));
    let (trace, sink) = TraceHandle::buffered(1 << 16);
    stub.set_trace(trace);
    let limiter = Arc::new(AimdLimiter::new(AimdConfig::default()));
    stub.set_limiter(Arc::clone(&limiter));
    let view = View {
        epoch: 1,
        sentinel: a.0,
        members: vec![a.0, b.0],
    };
    let mut path = Path {
        net: net.clone(),
        stub_endpoint,
        members: [a, b],
        view,
        script,
        delivered: 0,
        pinned: None,
        pin_lost: None,
        semantics,
    };
    // Discovery first, so the walk is A then B.
    assert_eq!(path.serve(), 1);
    assert!(stub.drain_completed().is_empty());
    assert_eq!(stub.members().len(), 2);

    let id = stub.invoke_begin("m", &()).unwrap();
    let mut results = Vec::new();
    for _ in 0..100_000 {
        results.extend(stub.drain_completed());
        if stub.in_flight() == 0 {
            break;
        }
        if path.serve() == 0 {
            let due = stub
                .next_due()
                .expect("a pending invocation has a due time");
            clock.advance_to(due.max(clock.now()));
        }
    }
    let label = format!("{semantics:?} {script:?}");
    assert_eq!(stub.in_flight(), 0, "{label}: never finished");
    assert_eq!(results.len(), 1, "{label}: results {results:?}");
    assert_eq!(results[0].0, id, "{label}");
    assert_eq!(limiter.in_flight(), 0, "{label}: limiter slot leaked");

    assert_eq!(sink.dropped(), 0, "{label}: trace truncated");
    let records = sink.snapshot();
    let mut invariants = Invariants::default();
    if semantics == Semantics::AtMostOnce {
        invariants.at_most_once.insert(id);
    }
    let violations = invariants.check(&records, &Quiesce::default());
    assert!(violations.is_clean(), "{label}: {violations:?}");

    let started = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::AttemptStarted { .. }))
        .count();
    if semantics == Semantics::Maybe {
        assert_eq!(started, 1, "{label}: Maybe retransmitted");
    }
    if let Some(member) = path.pin_lost {
        assert!(
            matches!(&results[0].1, Err(RmiError::OutcomeUnknown { member: m, .. }) if *m == member),
            "{label}: a view without the pinned member must end in OutcomeUnknown, got {:?}",
            results[0].1
        );
    }
    match &results[0].1 {
        Ok(_) => "Ok",
        Err(RmiError::DeadlineExceeded { .. }) => "DeadlineExceeded",
        Err(RmiError::PoolUnreachable { .. }) => "PoolUnreachable",
        Err(RmiError::Overloaded { .. }) => "Overloaded",
        Err(RmiError::OutcomeUnknown { .. }) => "OutcomeUnknown",
        Err(other) => panic!("{label}: unexpected ending {other:?}"),
    }
}

#[test]
fn every_ordering_of_up_to_three_attempts_keeps_the_invocation_contract() {
    let mut scripts: Vec<Vec<Event>> = EVENTS.iter().map(|&e| vec![e]).collect();
    for _ in 1..3 {
        let longer: Vec<Vec<Event>> = scripts
            .iter()
            .filter(|s| s.len() == scripts.last().unwrap().len())
            .flat_map(|s| {
                EVENTS.iter().map(move |&e| {
                    let mut next = s.clone();
                    next.push(e);
                    next
                })
            })
            .collect();
        scripts.extend(longer);
    }
    assert_eq!(scripts.len(), 7 + 49 + 343);
    let mut endings = std::collections::BTreeSet::new();
    for semantics in SEMANTICS {
        for script in &scripts {
            endings.insert((format!("{semantics:?}"), run(semantics, script)));
        }
    }
    // The enumeration reaches every ending: a reply and refusals everywhere
    // under each semantics; an exhausted walk where the invocation may move
    // on; the deadline and a lost pin where it is pinned. (Three events
    // cannot strand an `AtLeastOnce` walk past its deadline: two members and
    // a fresh view always leave it somewhere to go.)
    for semantics in SEMANTICS {
        let mut kinds = vec!["Ok", "Overloaded"];
        if semantics == Semantics::AtMostOnce {
            kinds.extend(["DeadlineExceeded", "OutcomeUnknown"]);
        } else {
            kinds.push("PoolUnreachable");
        }
        for kind in kinds {
            assert!(
                endings.contains(&(format!("{semantics:?}"), kind)),
                "no {semantics:?} path ended {kind}: {endings:?}"
            );
        }
    }
}

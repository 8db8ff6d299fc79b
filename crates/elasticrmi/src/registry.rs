//! An RMI registry: names bound to elastic pool sentinels.
//!
//! Java RMI clients bootstrap through `rmiregistry`; ElasticRMI keeps that
//! workflow (§2: "the same simplicity and ease of use of the Java RMI"), so
//! this module provides the equivalent: a small name service where servers
//! [`bind`](RegistryClient::bind) the sentinel endpoint of a pool under a
//! string name and clients [`lookup`](RegistryClient::lookup) it before
//! connecting a [`crate::Stub`].
//!
//! The registry speaks the ordinary invocation plane
//! ([`crate::RmiMessage::Request`]/`Response`), so it works over any
//! [`Network`] — in-process or TCP — without new message types.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use elasticrmi::registry::{RegistryClient, RegistryServer};
//! use erm_transport::{EndpointId, InProcNetwork};
//!
//! let net = InProcNetwork::new();
//! let server = RegistryServer::spawn(Arc::new(net.clone()));
//!
//! let mut client = RegistryClient::connect(Arc::new(net.clone()), server.endpoint());
//! assert!(client.bind("bank", EndpointId(42)).unwrap());
//! assert_eq!(client.lookup("bank").unwrap(), Some(EndpointId(42)));
//! server.shutdown();
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use erm_semantics::Semantics;
use erm_sim::{Clock, SimDuration, SystemClock};
use erm_transport::{EndpointId, Host, Mailbox, Network, RecvError};

use crate::error::{RemoteError, RmiError};
use crate::message::{InvocationContext, RmiMessage};

/// A running registry server.
///
/// Dropping the handle shuts the server down.
pub struct RegistryServer {
    endpoint: EndpointId,
    net: Arc<dyn Host>,
    join: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for RegistryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryServer")
            .field("endpoint", &self.endpoint)
            .finish_non_exhaustive()
    }
}

impl RegistryServer {
    /// Starts a registry on a fresh endpoint of `net`.
    pub fn spawn(net: Arc<dyn Host>) -> RegistryServer {
        let (endpoint, mailbox) = net.open();
        let send_net: Arc<dyn Network> = Arc::clone(&net) as Arc<dyn Network>;
        let join = std::thread::Builder::new()
            .name("erm-registry".to_string())
            .spawn(move || serve(endpoint, mailbox, send_net))
            .expect("spawn registry thread");
        RegistryServer {
            endpoint,
            net,
            join: Some(join),
        }
    }

    /// The endpoint clients should talk to.
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// Stops the server. Idempotent; also performed on drop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(join) = self.join.take() {
            self.net.close(self.endpoint);
            let _ = join.join();
        }
    }
}

impl Drop for RegistryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve(endpoint: EndpointId, mailbox: Mailbox, net: Arc<dyn Network>) {
    let mut bindings: BTreeMap<String, EndpointId> = BTreeMap::new();
    loop {
        let datagram = match mailbox.recv_timeout(Duration::from_millis(50)) {
            Ok(d) => d,
            Err(RecvError::Timeout) => continue,
            Err(RecvError::Closed) => return,
        };
        // The registry has no pool clock, so it serves every request and
        // leaves deadline enforcement to the caller.
        let Ok(RmiMessage::Request {
            call,
            context: _,
            method,
            args,
        }) = RmiMessage::decode(&datagram.payload)
        else {
            continue;
        };
        let outcome: Result<Vec<u8>, RemoteError> = match method.as_str() {
            "bind" => crate::api::decode_args::<(String, EndpointId)>(&method, &args).map(
                |(name, target)| {
                    let fresh = !bindings.contains_key(&name);
                    bindings.insert(name, target);
                    crate::api::encode_result(&fresh).expect("bool encodes")
                },
            ),
            "unbind" => crate::api::decode_args::<String>(&method, &args).map(|name| {
                let existed = bindings.remove(&name).is_some();
                crate::api::encode_result(&existed).expect("bool encodes")
            }),
            "lookup" => crate::api::decode_args::<String>(&method, &args).map(|name| {
                crate::api::encode_result(&bindings.get(&name).copied()).expect("option encodes")
            }),
            "list" => {
                let names: Vec<&String> = bindings.keys().collect();
                crate::api::encode_result(&names)
            }
            other => Err(RemoteError::no_such_method(other)),
        };
        let _ = net.send(
            endpoint,
            datagram.from,
            RmiMessage::Response {
                call,
                outcome,
                replayed: false,
            }
            .encode(),
        );
    }
}

/// A client handle to a [`RegistryServer`].
pub struct RegistryClient {
    net: Arc<dyn Network>,
    endpoint: EndpointId,
    mailbox: Mailbox,
    registry: EndpointId,
    next_call: u64,
    clock: SystemClock,
    timeout: Duration,
}

impl std::fmt::Debug for RegistryClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryClient")
            .field("registry", &self.registry)
            .finish_non_exhaustive()
    }
}

impl RegistryClient {
    /// Opens a client endpoint on `net` aimed at the registry at `registry`.
    /// Requests carry deadlines from a system clock.
    pub fn connect(net: Arc<dyn Host>, registry: EndpointId) -> RegistryClient {
        let (endpoint, mailbox) = net.open();
        RegistryClient {
            net: net as Arc<dyn Network>,
            endpoint,
            mailbox,
            registry,
            next_call: 0,
            clock: SystemClock::new(),
            timeout: Duration::from_secs(2),
        }
    }

    fn call<A: serde::Serialize, R: serde::de::DeserializeOwned>(
        &mut self,
        method: &str,
        args: &A,
    ) -> Result<R, RmiError> {
        let call = self.next_call;
        self.next_call += 1;
        let args = erm_transport::to_bytes(args).map_err(|e| RmiError::Encode(e.to_string()))?;
        // One wire attempt per call (this client never retransmits), so the
        // 1-based attempt counter is literally 1 — the same convention the
        // stub's resend paths continue from. Registry operations are
        // idempotent lookups/bindings, so `AtLeastOnce` is honest.
        let context = InvocationContext {
            id: call,
            deadline: self.clock.now() + SimDuration::from_micros(self.timeout.as_micros() as u64),
            attempt: 1,
            origin: self.endpoint,
            semantics: Semantics::AtLeastOnce,
            routing_key: None,
        };
        self.net
            .send(
                self.endpoint,
                self.registry,
                RmiMessage::Request {
                    call,
                    context,
                    method: method.to_string(),
                    args,
                }
                .encode(),
            )
            .map_err(|_| RmiError::SentinelUnreachable(self.registry))?;
        let deadline = std::time::Instant::now() + self.timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(RmiError::SentinelUnreachable(self.registry));
            }
            match self.mailbox.recv_timeout(remaining) {
                Ok(d) => {
                    if let Ok(RmiMessage::Response {
                        call: c, outcome, ..
                    }) = RmiMessage::decode(&d.payload)
                    {
                        if c != call {
                            continue;
                        }
                        let bytes = outcome.map_err(RmiError::Remote)?;
                        return erm_transport::from_bytes(&bytes)
                            .map_err(|e| RmiError::Decode(e.to_string()));
                    }
                }
                Err(_) => return Err(RmiError::SentinelUnreachable(self.registry)),
            }
        }
    }

    /// Binds `name` to a pool's sentinel endpoint. Returns `true` when the
    /// name was previously unbound (rebinding is allowed and returns
    /// `false`).
    ///
    /// # Errors
    ///
    /// Transport or registry failures as [`RmiError`].
    pub fn bind(&mut self, name: &str, sentinel: EndpointId) -> Result<bool, RmiError> {
        self.call("bind", &(name, sentinel))
    }

    /// Removes a binding; returns whether it existed.
    ///
    /// # Errors
    ///
    /// Transport or registry failures as [`RmiError`].
    pub fn unbind(&mut self, name: &str) -> Result<bool, RmiError> {
        self.call("unbind", &name)
    }

    /// Looks a name up.
    ///
    /// # Errors
    ///
    /// Transport or registry failures as [`RmiError`].
    pub fn lookup(&mut self, name: &str) -> Result<Option<EndpointId>, RmiError> {
        self.call("lookup", &name)
    }

    /// Lists all bound names, sorted.
    ///
    /// # Errors
    ///
    /// Transport or registry failures as [`RmiError`].
    pub fn list(&mut self) -> Result<Vec<String>, RmiError> {
        self.call("list", &())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erm_transport::InProcNetwork;

    fn setup() -> (InProcNetwork, RegistryServer, RegistryClient) {
        let net = InProcNetwork::new();
        let server = RegistryServer::spawn(Arc::new(net.clone()));
        let client = RegistryClient::connect(Arc::new(net.clone()), server.endpoint());
        (net, server, client)
    }

    #[test]
    fn bind_lookup_roundtrip() {
        let (_net, server, mut client) = setup();
        assert!(client.bind("orders", EndpointId(7)).unwrap());
        assert_eq!(client.lookup("orders").unwrap(), Some(EndpointId(7)));
        assert_eq!(client.lookup("absent").unwrap(), None);
        server.shutdown();
    }

    #[test]
    fn rebind_replaces_and_reports() {
        let (_net, server, mut client) = setup();
        assert!(client.bind("svc", EndpointId(1)).unwrap());
        assert!(!client.bind("svc", EndpointId(2)).unwrap());
        assert_eq!(client.lookup("svc").unwrap(), Some(EndpointId(2)));
        server.shutdown();
    }

    #[test]
    fn unbind_removes() {
        let (_net, server, mut client) = setup();
        client.bind("a", EndpointId(1)).unwrap();
        assert!(client.unbind("a").unwrap());
        assert!(!client.unbind("a").unwrap());
        assert_eq!(client.lookup("a").unwrap(), None);
        server.shutdown();
    }

    #[test]
    fn list_is_sorted() {
        let (_net, server, mut client) = setup();
        for name in ["zeta", "alpha", "mid"] {
            client.bind(name, EndpointId(0)).unwrap();
        }
        assert_eq!(client.list().unwrap(), vec!["alpha", "mid", "zeta"]);
        server.shutdown();
    }

    #[test]
    fn multiple_clients_share_the_namespace() {
        let (net, server, mut a) = setup();
        let mut b = RegistryClient::connect(Arc::new(net.clone()), server.endpoint());
        a.bind("shared", EndpointId(9)).unwrap();
        assert_eq!(b.lookup("shared").unwrap(), Some(EndpointId(9)));
        server.shutdown();
    }

    #[test]
    fn dead_registry_reports_unreachable() {
        let (_net, server, mut client) = setup();
        server.shutdown();
        let err = client.lookup("x").unwrap_err();
        assert!(matches!(err, RmiError::SentinelUnreachable(_)));
    }

    #[test]
    fn unknown_method_is_remote_error() {
        let (_net, server, mut client) = setup();
        let err = client.call::<_, bool>("frob", &()).unwrap_err();
        assert!(matches!(err, RmiError::Remote(e) if e.kind == "NoSuchMethod"));
        server.shutdown();
    }
}

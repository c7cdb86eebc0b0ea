//! Outgoing-message plumbing shared by the state machines.
//!
//! The canonical definitions live in [`mediator_sim::sansio`] — the shared
//! sans-IO driving contract the `World` runs machines through. This module
//! re-exports them under their historical paths.
//!
//! [`Payload`] is the broadcast fan-out companion: `route_batch` clones a
//! [`Dest::All`] message once per destination, so `Vec<Fp>`-bearing wire
//! types wrap their heavy part in `Payload` to make each copy a refcount
//! bump (see e.g. `mediator_vss::DetectMsg::Open`). State machines generic
//! over a value type get the same effect by instantiating `V = Payload<…>`
//! — an `RbcState<Payload<Vec<Fp>>>` broadcasts one shared buffer to all
//! `n` players.

pub use mediator_sim::sansio::{map_batch, Dest, Outgoing, Payload};

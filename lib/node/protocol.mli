(** Wire protocol of the multi-process engine ({!Node}).

    Every message travels in one frame: a 4-byte big-endian payload
    length, then the payload — one tag byte followed by the body. The
    framing carries no addresses or version fields; it is the same shape a
    TCP transport would use, so moving off Unix domain sockets only
    changes how the file descriptors are obtained.

    The data plane (batches, map contents, shuffle deliveries) is encoded
    by hand, not [Marshal]: values round-trip exactly (floats by their
    IEEE-754 bits), so a store filled through the wire is bit-identical
    to one filled in process — the property the simulator-equivalence
    qcheck in [test_node] relies on. The one exception is [Init], whose
    body is a marshaled {!Divm_dist.Dprog.t}: the distributed program is
    pure data (no closures) and both ends run the same binary.

    Decoding is strict: a frame longer than [max_frame], a payload that
    ends mid-field, an unknown tag, or trailing bytes after the message
    all raise {!Error} rather than yielding a partial message. *)

open Divm_storage
open Divm_obs

(** One telemetry pull's worth of worker-side observability state. The
    snapshot and slot rows are {e deltas} since the previous pull (the
    worker keeps the subtraction baseline); spans are the completed
    spans since the previous pull, stamped with the worker's own clock.
    [t_now] is the worker's [Unix.gettimeofday] at encode time — the
    coordinator combines it with its own send/receive timestamps to
    estimate the worker's clock offset. *)
type telem = {
  t_now : float;
  t_snap : Obs.snapshot;
  t_slots : Prof.row list;
  t_spans : Obs.event list;
}

(** One worker's report of a direct mesh shuffle it just finished, the
    coordinator's only involvement in the data movement. [ss_modeled]
    and [ss_sent] are indexed by destination worker: [ss_modeled] is the
    cost model's byte accounting (origin = destination moves are free,
    exactly the simulator's rule), [ss_sent] the framed bytes actually
    written to each peer socket (0 at the worker's own index). [ss_ser]
    is the modeled serialized size of everything this worker shuffled
    out, and [ss_wall] the seconds the whole partition/exchange/apply
    took. *)
type shuffle_stat = {
  ss_ser : int;
  ss_modeled : int array;
  ss_sent : int array;
  ss_wall : float;
}

type msg =
  | Hello of int
      (** worker id, first message after connecting — to the coordinator,
          and to an accepting peer on each mesh link *)
  | Init of string
      (** marshaled {!Divm_dist.Dprog.t}; the worker builds its runtime *)
  | Load_batch of string * Gmr.t
      (** relation, a batch share in row form. The engine itself ships
          [Load_share]; this row-form message stays decodable for
          codec replays and tools built on the GMR layout. Workers reject
          it. *)
  | Load_share of string * Colbatch.t
      (** relation, this worker's share of the update batch as typed
          columns ({!Colbatch.deal}). Only the share's live columns travel
          — the ones the worker's blocks for that trigger read — each
          tagged with its position and cell count; a constant
          multiplicity travels once. The decoder rejects a position at or
          past the stream width, a repeated position, a cell count other
          than the row count, and a dictionary code out of range. *)
  | Run_block of string * int  (** trigger relation, block index *)
  | Block_done of int * float
      (** record-op delta and wall seconds the block took on the worker *)
  | Pull_map of string
  | Map_contents of Gmr.t  (** reply to [Pull_map] *)
  | Deliver of string * Gmr.t  (** shuffle delivery into a transient map *)
  | Clear_map of string
  | Ack
  | Shutdown
  | Start_telemetry of bool * bool
      (** (profile, trace): enable the worker-side profiler and/or span
          tracer so subsequent pulls have something to ship *)
  | Pull_telemetry  (** coordinator requests a {!Telemetry} reply *)
  | Telemetry of telem  (** reply to [Pull_telemetry] *)
  | Peers of string array
      (** coordinator → worker: every worker's mesh listener socket path,
          indexed by worker id; the receiver binds its own entry *)
  | Mesh_connect
      (** coordinator → worker: establish the full connection mesh now
          (initiate to lower ids, accept from higher ids) *)
  | Shuffle of int
      (** coordinator → worker: run one direct transfer, named by its
          index into {!Divm_dist.Dprog.transfers} — both ends derive the
          identical table from the [Init] program, so four bytes replace
          the (map name, key, source) strings on the hottest control
          frame. An empty partition key in the table entry broadcasts to
          every worker. *)
  | Shuffle_done of shuffle_stat
      (** reply to [Shuffle]. The per-peer byte arrays ride as i32 (each
          entry is bounded by [max_frame]) to keep the per-transfer
          control floor small. *)
  | Mesh_data of int * Gmr.t
      (** worker → worker, on a mesh link: [(source worker id, pre-summed
          buffer)]. The destination map is implied — the exchange is a
          synchronous barrier per [Shuffle], so a frame can only belong
          to the transfer in flight; repeating the map name in every
          frame would only pad the empty-buffer floor. The sender's slot
          order is preserved, so replay stays bit-identical. *)

(** Malformed frame or payload. The message names the defect, and for a
    field-level failure also the frame's claimed message tag and payload
    length; a bad length prefix cites the would-be tag byte when one is
    available. *)
exception Error of string

(** Frames larger than this are rejected on both ends (64 MiB — far above
    any TPC-H batch, small enough to stop a corrupt length prefix from
    allocating the moon). *)
val max_frame : int

(** [encode m] is [m]'s payload (tag + body, no length prefix). *)
val encode : msg -> string

(** [decode s] parses a full payload. Raises {!Error} on unknown tags,
    truncated fields, or trailing bytes. *)
val decode : string -> msg

(** [encode_frame m] is the complete frame: length prefix + payload. *)
val encode_frame : msg -> string

(** [decode_frame s] parses one complete frame and returns the message and
    the number of bytes consumed. Raises {!Error} when [s] is shorter
    than its own length prefix claims, or when the prefix exceeds
    [max_frame]. *)
val decode_frame : string -> msg * int

(** Blocking send of one framed message; returns bytes written (frame
    size, for wire accounting). *)
val write_msg : Unix.file_descr -> msg -> int

(** Blocking receive of one framed message; returns the message and bytes
    read. Raises {!Error} on EOF mid-frame or an oversized length, and
    [End_of_file] on EOF at a frame boundary (orderly peer exit). *)
val read_msg : Unix.file_descr -> msg * int

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

    Every relation crosses in one format, the column share
    ({!Colbatch}): width, row count, then each carried column's position
    (ascending), cell count and typed run — unboxed numbers, a
    dictionary plus codes, or boxed values — then the multiplicities,
    one f64 when every row has the same bit pattern. A batch share
    carries the columns its worker's blocks read. A map carries every
    column, its rows in slot order, so merging a decoded map's rows in
    order rebuilds a bit-identical store; an empty map is the 9-byte
    empty share. Maps travel as the column batches a pool's partition
    walk cut ({!Divm_cluster.Cluster.serve}) and decode to column
    batches, never to rows; only [Load_batch] still carries a GMR, whose
    width is the arity of its rows (all rows must share it). One writer
    and one reader serve both.

    Decoding is strict: a frame longer than [max_frame], a payload that
    ends mid-field, an unknown tag, or trailing bytes after the message
    all raise {!Error} rather than yielding a partial message. Typed
    runs and counted lists are checked against the bytes left before
    their arrays are allocated, so a truncated frame cannot allocate the
    rows it declares. *)

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

type msg =
  | Hello of int
      (** worker id, first message after connecting — to the coordinator,
          and to an accepting peer on each mesh link *)
  | Init of string
      (** marshaled {!Divm_dist.Dprog.t}; the worker builds its runtime *)
  | Load_batch of string * Gmr.t
      (** relation, a whole batch as the share of every column. The
          engine itself ships each worker's share inside [Run_block];
          this message stays for the benchmark's codec replay. Workers
          reject it. *)
  | Request of Divm_cluster.Cluster.request
      (** coordinator → worker, handed to
          {!Divm_cluster.Cluster.serve}. One tag per request:
          - [Run_block] (tag 4): relation, block index, the names of the
            maps to send back, then the share, if any. The share travels
            as typed columns ({!Colbatch.shares_of_gmr}): only its live
            columns — the ones the worker's blocks for that trigger read
            — each tagged with its position and cell count; a constant
            multiplicity travels once. The decoder rejects a position at
            or past the stream width, positions that do not ascend, a cell
            count other than the row count, and a dictionary code out of
            range.
          - [Pull_map] (tag 6): the map names.
          - [Deliver] (tag 8): the map name, then its batch as a map
            share.
          - [Shuffle] (tag 17): each transfer as its index into
            {!Divm_dist.Dprog.transfers} — both ends derive the identical
            table from the [Init] program, so four bytes replace the (map
            name, key, source) strings on the hottest control frame. *)
  | Reply of Divm_cluster.Cluster.reply
      (** worker → coordinator, the answer to each [Request] and, as
          [Reply Ack] (tag 10), to every control message that expects
          one:
          - [Block_done] (tag 5): record-op delta and wall seconds, then
            every pulled map as a map share.
          - [Map_contents] (tag 7): every map as a map share. The decoder
            rejects a map share that lacks a column, and returns each map
            as a column batch with all its columns and rows in order.
          - [Shuffle_done] (tag 18): one stat per transfer. The per-peer
            byte arrays ride as i32 (each entry is bounded by
            [max_frame]) to keep the per-transfer control floor small. *)
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
  | Mesh_data of int * Colbatch.t array
      (** worker → worker, on a mesh link: [(source worker id, one
          column batch per transfer of the exchange)], each batch the
          rows of the sender's partition bound for the receiver, in the
          source pool's slot order ({!Divm_cluster.Cluster.outbound}).
          A batch travels as the share of its live columns — every column
          of a partition's batch — or as the empty share when it has no
          rows: the bytes a map share of the same rows takes. The
          decoder rejects a batch that lacks a column, and returns every
          batch with all its columns and rows in order, without building
          a row. The destination maps are implied — the exchange is a
          synchronous barrier per [Shuffle], so a frame can only belong to
          the run in flight, and its batches follow the run's order. *)

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

(** [encode_frame m] is the complete frame: length prefix + payload,
    built once in one buffer. A frame that carries several maps sizes
    them all before writing any, so it is returned without a copy.
    Raises {!Error} on a [Load_batch] GMR whose rows differ in arity. *)
val encode_frame : msg -> string

(** [mesh_frame ~src bufs] is [encode_frame (Mesh_data (src, bufs))], and
    the bytes of the frame each batch accounts for: its own encoding,
    with the frame's header charged to the first. The sizes sum to the
    frame's length. *)
val mesh_frame : src:int -> Colbatch.t array -> string * int array

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

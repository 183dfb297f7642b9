(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), sliced by 8 over native ints.

    Every section of a {!Store} container carries the checksum of its
    payload so corruption — a flipped bit, a truncated write, a partial
    download — is detected before decoding begins.  The stdlib has no
    CRC, and Marshal checksums nothing, hence this short
    implementation; a full decode checksums every byte it reads. *)

val string : string -> int32
(** Checksum of a whole string. *)

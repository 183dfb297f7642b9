(** Bit-width arithmetic used when computing channel [bits] weights.

    SLIF annotates each channel with the number of bits transferred per
    access: the encoding width of a scalar, or element width plus address
    width for an array (paper, Section 2.4.1). *)

val bits_for_range : lo:int -> hi:int -> int
(** [bits_for_range ~lo ~hi] is the number of bits to encode the integer
    range [lo..hi]: unsigned binary when [lo >= 0], two's complement
    otherwise.  Raises [Invalid_argument] when [hi < lo]. *)

val address_bits : length:int -> int
(** [address_bits ~length] is the number of address bits needed to select
    one element of an array with [length] elements (paper: 7 address bits
    for a 128-element array). *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is ceiling(a / b) for [a >= 0], [b > 0]; used to count
    how many bus transfers move [a] bits over a [b]-bit-wide bus. *)

type spec = Range | Hash

let spec_of_string = function
  | "range" -> Ok Range
  | "hash" -> Ok Hash
  | other -> Error (Printf.sprintf "unknown partition spec %S" other)

let string_of_spec = function Range -> "range" | Hash -> "hash"

(* Knuth's multiplicative constant, truncated to keep the product in
   the positive int range on 64-bit; stable across runs and platforms
   (unlike Hashtbl.hash, which is version-dependent in principle). *)
let mix v = v * 2654435761 land max_int

let owner spec ~shards ~n v =
  if shards <= 0 then invalid_arg "Partition.owner: shards must be positive";
  if v < 0 || v >= n then invalid_arg "Partition.owner: vertex out of range";
  match spec with
  | Hash -> mix v mod shards
  | Range ->
      (* blocks of ceil(n / shards); the last block may run short *)
      let block = (n + shards - 1) / shards in
      min (v / block) (shards - 1)

let owner_of_pair spec ~shards ~n u v = owner spec ~shards ~n (min u v)

let owned spec ~shards ~n shard =
  if shard < 0 || shard >= shards then
    invalid_arg "Partition.owned: shard out of range";
  (* one array, no per-vertex garbage: a forked worker computes this
     at start-up, where every page it writes is a copy-on-write fault *)
  let buf = Array.make n 0 and k = ref 0 in
  for v = 0 to n - 1 do
    buf.(!k) <- v;
    if owner spec ~shards ~n v = shard then incr k
  done;
  Array.sub buf 0 !k

let slice spec ~shards ~shard labels =
  if shard < 0 || shard >= shards then
    invalid_arg "Partition.slice: shard out of range";
  let n = Hub_label.n labels in
  let owned v = owner spec ~shards ~n v = shard in
  (* the shard's hub universe: every hub of an owned vertex *)
  let in_universe = Array.make n false in
  for v = 0 to n - 1 do
    if owned v then
      Array.iter (fun (h, _) -> in_universe.(h) <- true) (Hub_label.hubs labels v)
  done;
  Hub_label.restrict labels ~keep:(fun v h -> owned v || in_universe.(h))

let default_domains () = 1

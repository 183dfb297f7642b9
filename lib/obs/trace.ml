let write_file path = Json.write_file path (Flight.to_chrome ())
